// Package cache provides the LRU caching layer the paper places in front of
// the shortest-path engine (§VI): "we implement two LRU caches using a
// single hash table, one storing up to ten million shortest distances and
// the other storing up to ten thousand shortest paths ... indexed only by
// the starting and destination points ... by defining the index for two
// vertices s and e as i = id(s)·|V| + id(e)".
package cache

import "fmt"

// LRU is a fixed-capacity least-recently-used map from uint64 keys to
// values of type V, implemented as a hash map over entries in an intrusive
// doubly-linked list. The zero value is not usable; use NewLRU.
//
// Not safe for concurrent use.
type LRU[V any] struct {
	capacity int
	table    map[uint64]int // key -> slot
	entries  []lruEntry[V]  // slot-addressed; head/tail form the recency list
	head     int            // most recently used, -1 when empty
	tail     int            // least recently used, -1 when empty
	free     []int          // recycled slots
	hits     uint64
	misses   uint64
}

type lruEntry[V any] struct {
	key        uint64
	value      V
	prev, next int
}

// NewLRU returns an LRU with the given capacity (minimum 1). Nothing is
// preallocated: the table grows with the entries actually stored, so a
// generous capacity costs no memory until it fills.
func NewLRU[V any](capacity int) *LRU[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[V]{
		capacity: capacity,
		table:    make(map[uint64]int),
		head:     -1,
		tail:     -1,
	}
}

// Len returns the number of cached entries.
func (c *LRU[V]) Len() int { return len(c.table) }

// Cap returns the configured capacity.
func (c *LRU[V]) Cap() int { return c.capacity }

// Stats returns the cumulative hit and miss counts of Get.
func (c *LRU[V]) Stats() (hits, misses uint64) { return c.hits, c.misses }

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *LRU[V]) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Get returns the value stored under key and marks it most recently used.
func (c *LRU[V]) Get(key uint64) (V, bool) {
	slot, ok := c.table[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(slot)
	return c.entries[slot].value, true
}

// Put stores value under key, evicting the least recently used entry if the
// cache is full. Storing an existing key updates its value and recency.
func (c *LRU[V]) Put(key uint64, value V) {
	if slot, ok := c.table[key]; ok {
		c.entries[slot].value = value
		c.moveToFront(slot)
		return
	}
	if len(c.table) >= c.capacity {
		c.evict()
	}
	var slot int
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
		c.entries[slot] = lruEntry[V]{key: key, value: value, prev: -1, next: -1}
	} else {
		slot = len(c.entries)
		c.entries = append(c.entries, lruEntry[V]{key: key, value: value, prev: -1, next: -1})
	}
	c.table[key] = slot
	c.pushFront(slot)
}

func (c *LRU[V]) evict() {
	slot := c.tail
	if slot < 0 {
		return
	}
	c.unlink(slot)
	delete(c.table, c.entries[slot].key)
	var zero V
	c.entries[slot].value = zero // drop references for GC
	c.free = append(c.free, slot)
}

func (c *LRU[V]) pushFront(slot int) {
	c.entries[slot].prev = -1
	c.entries[slot].next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = slot
	}
	c.head = slot
	if c.tail < 0 {
		c.tail = slot
	}
}

func (c *LRU[V]) unlink(slot int) {
	e := &c.entries[slot]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (c *LRU[V]) moveToFront(slot int) {
	if c.head == slot {
		return
	}
	c.unlink(slot)
	c.pushFront(slot)
}

// checkInvariants validates internal consistency; used by tests.
func (c *LRU[V]) checkInvariants() error {
	count := 0
	prev := -1
	for at := c.head; at != -1; at = c.entries[at].next {
		if c.entries[at].prev != prev {
			return fmt.Errorf("cache: bad prev link at slot %d", at)
		}
		if got, ok := c.table[c.entries[at].key]; !ok || got != at {
			return fmt.Errorf("cache: table mismatch for key %d", c.entries[at].key)
		}
		prev = at
		count++
		if count > len(c.table) {
			return fmt.Errorf("cache: list longer than table (cycle?)")
		}
	}
	if prev != c.tail {
		return fmt.Errorf("cache: tail mismatch: walked to %d, tail is %d", prev, c.tail)
	}
	if count != len(c.table) {
		return fmt.Errorf("cache: list has %d entries, table has %d", count, len(c.table))
	}
	if len(c.table) > c.capacity {
		return fmt.Errorf("cache: size %d exceeds capacity %d", len(c.table), c.capacity)
	}
	return nil
}

package sp

import (
	"repro/internal/roadnet"
)

// Dijkstra is a single-source shortest-path engine with reusable buffers.
// Search state is invalidated between queries with an epoch stamp rather
// than an O(n) clear, so repeated queries on large graphs stay cheap. It
// is a Pinner: Dist answers from a pinned row when it can.
//
// Not safe for concurrent use.
type Dijkstra struct {
	g      *roadnet.Graph
	dist   []float64
	parent []roadnet.VertexID
	stamp  []uint32
	epoch  uint32
	heap   distHeap
	pins   rows
}

// NewDijkstra returns a Dijkstra engine for g.
func NewDijkstra(g *roadnet.Graph) *Dijkstra {
	n := g.N()
	return &Dijkstra{
		g:      g,
		dist:   make([]float64, n),
		parent: make([]roadnet.VertexID, n),
		stamp:  make([]uint32, n),
		pins:   newRows(g),
	}
}

// Pin implements Pinner.
func (d *Dijkstra) Pin(src roadnet.VertexID, radius float64) { d.pins.pin(src, radius) }

func (d *Dijkstra) reset() {
	d.epoch++
	if d.epoch == 0 { // wrapped: clear stamps explicitly
		for i := range d.stamp {
			d.stamp[i] = 0
		}
		d.epoch = 1
	}
	d.heap = d.heap[:0]
}

func (d *Dijkstra) seen(v roadnet.VertexID) bool { return d.stamp[v] == d.epoch }

func (d *Dijkstra) relax(v roadnet.VertexID, dist float64, from roadnet.VertexID) {
	if !d.seen(v) || dist < d.dist[v] {
		d.stamp[v] = d.epoch
		d.dist[v] = dist
		d.parent[v] = from
		d.heap.push(distItem{v, dist})
	}
}

// Dist returns the shortest-path cost from u to v, from a pinned row when
// one covers the pair, and otherwise by a search that stops as soon as v
// is settled.
func (d *Dijkstra) Dist(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	if dist, ok := d.pins.lookup(u, v); ok {
		return dist
	}
	return d.search(u, v)
}

// search runs the early-exit Dijkstra behind Dist, leaving the parent
// pointers Path walks.
func (d *Dijkstra) search(u, v roadnet.VertexID) float64 {
	d.reset()
	d.relax(u, 0, -1)
	for len(d.heap) > 0 {
		it := d.heap.pop()
		if it.dist > d.dist[it.v] || !d.seen(it.v) {
			continue // stale entry
		}
		if it.v == v {
			return it.dist
		}
		ts, ws := d.g.Neighbors(it.v)
		for i, t := range ts {
			d.relax(t, it.dist+ws[i], it.v)
		}
		// Mark settled by bumping stored dist guard: we rely on lazy
		// deletion; nothing else to do.
	}
	if d.seen(v) {
		return d.dist[v]
	}
	return Inf
}

// Path returns a shortest path from u to v, or nil if unreachable.
func (d *Dijkstra) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	if dist := d.search(u, v); dist == Inf {
		return nil
	}
	return d.walkParents(u, v)
}

// walkParents reconstructs the path from the parent pointers of the most
// recent search. The search must have settled v.
func (d *Dijkstra) walkParents(u, v roadnet.VertexID) []roadnet.VertexID {
	var rev []roadnet.VertexID
	for at := v; at != -1; at = d.parent[at] {
		rev = append(rev, at)
		if at == u {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// distItem is a heap entry.
type distItem struct {
	v    roadnet.VertexID
	dist float64
}

// distHeap is a binary min-heap of distItems with lazy deletion. A
// hand-rolled heap avoids the interface boxing of container/heap on this
// very hot path.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist <= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].dist < old[small].dist {
			small = l
		}
		if r < n && old[r].dist < old[small].dist {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

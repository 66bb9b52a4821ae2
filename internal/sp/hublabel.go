package sp

import (
	"sort"
	"sync"

	"repro/internal/roadnet"
)

// HubLabels is a 2-hop labeling distance index built with pruned landmark
// labeling (Akiba et al.), the practical hub-labeling construction the paper
// refers to ("we implement the state-of-art hub-labeling algorithm — a fast
// and practical algorithm to heuristically construct the distance labeling
// on large road networks, where each vertex records a set of intermediate
// vertices and their distance to them", §VI).
//
// Each vertex stores a sorted list of (hub, distance) pairs; a distance
// query intersects the two endpoint lists in a single merge pass.
// HubLabels is a SharedOracle: distance queries read the immutable labels
// and are safe for unsynchronized concurrent use, while path queries fall
// back to an internal bidirectional Dijkstra engine serialized by a mutex.
type HubLabels struct {
	g      *roadnet.Graph
	hubs   [][]int32   // per-vertex sorted hub ranks
	dists  [][]float64 // parallel distances
	labels int         // total label entries, for stats

	pathMu sync.Mutex
	bidij  *Bidirectional // for Path; guarded by pathMu
}

// NewHubLabels builds the index. Vertices are ranked by degree (descending,
// ties by ID), a cheap ordering that works well on road networks. Build time
// is roughly one pruned Dijkstra per vertex.
func NewHubLabels(g *roadnet.Graph) *HubLabels {
	n := g.N()
	order := make([]roadnet.VertexID, n)
	for i := range order {
		order[i] = roadnet.VertexID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	rank := make([]int32, n) // vertex -> rank (0 = most important)
	for r, v := range order {
		rank[v] = int32(r)
	}

	hl := &HubLabels{
		g:     g,
		hubs:  make([][]int32, n),
		dists: make([][]float64, n),
		bidij: NewBidirectional(g),
	}

	// Pruned Dijkstra state (epoch-stamped).
	dist := make([]float64, n)
	stamp := make([]uint32, n)
	var epoch uint32
	var heap distHeap

	for r := 0; r < n; r++ {
		root := order[r]
		epoch++
		heap = heap[:0]
		dist[root] = 0
		stamp[root] = epoch
		heap.push(distItem{root, 0})
		for len(heap) > 0 {
			it := heap.pop()
			if stamp[it.v] != epoch || it.dist > dist[it.v] {
				continue
			}
			// Prune: if existing labels already certify a distance
			// <= it.dist via a higher-ranked hub, skip.
			if hl.queryRanked(root, it.v, int32(r)) <= it.dist {
				continue
			}
			// Label it.v with hub rank r. Ranks are assigned in
			// increasing order, so appending keeps lists sorted.
			hl.hubs[it.v] = append(hl.hubs[it.v], int32(r))
			hl.dists[it.v] = append(hl.dists[it.v], it.dist)
			hl.labels++

			ts, ws := g.Neighbors(it.v)
			for i, t := range ts {
				nd := it.dist + ws[i]
				if stamp[t] != epoch || nd < dist[t] {
					stamp[t] = epoch
					dist[t] = nd
					heap.push(distItem{t, nd})
				}
			}
		}
	}
	return hl
}

// queryRanked is the query used during construction: a pure label
// intersection with no same-vertex shortcut. During the pruned Dijkstra from
// the rank-r root, both endpoints carry only labels of hubs ranked < r, so
// the intersection answers "is there already a witness path via a more
// important hub?" — including for the root itself, which must not be pruned
// before labeling itself (its intersection with itself is initially empty).
func (hl *HubLabels) queryRanked(a, b roadnet.VertexID, _ int32) float64 {
	ha, da := hl.hubs[a], hl.dists[a]
	hb, db := hl.hubs[b], hl.dists[b]
	best := Inf
	i, j := 0, 0
	for i < len(ha) && j < len(hb) {
		switch {
		case ha[i] == hb[j]:
			if d := da[i] + db[j]; d < best {
				best = d
			}
			i++
			j++
		case ha[i] < hb[j]:
			i++
		default:
			j++
		}
	}
	return best
}

// Dist returns the shortest-path cost from u to v by intersecting label
// lists. Safe for concurrent use after construction.
func (hl *HubLabels) Dist(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	hu, du := hl.hubs[u], hl.dists[u]
	hv, dv := hl.hubs[v], hl.dists[v]
	best := Inf
	i, j := 0, 0
	for i < len(hu) && j < len(hv) {
		switch {
		case hu[i] == hv[j]:
			if d := du[i] + dv[j]; d < best {
				best = d
			}
			i++
			j++
		case hu[i] < hv[j]:
			i++
		default:
			j++
		}
	}
	return best
}

// Path returns a shortest path from u to v via the internal bidirectional
// Dijkstra engine. Hub labels certify distances; explicit paths are recovered
// on demand, matching the paper's design where "a second version of the road
// network is stored in memory in a weighted adjacency list" for route
// tracking.
// Concurrent calls serialize on an internal mutex.
func (hl *HubLabels) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	hl.pathMu.Lock()
	defer hl.pathMu.Unlock()
	return hl.bidij.Path(u, v)
}

// ConcurrencySafe marks HubLabels as a SharedOracle.
func (hl *HubLabels) ConcurrencySafe() {}

// AvgLabelSize returns the mean number of label entries per vertex, a
// standard index-quality statistic.
func (hl *HubLabels) AvgLabelSize() float64 {
	if hl.g.N() == 0 {
		return 0
	}
	return float64(hl.labels) / float64(hl.g.N())
}

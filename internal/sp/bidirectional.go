package sp

import (
	"repro/internal/roadnet"
)

// Bidirectional is a bidirectional Dijkstra engine. On road networks it
// typically settles far fewer vertices than unidirectional Dijkstra,
// which matters when no precomputed index (hub labels) is available.
// It is a Pinner: Dist answers from a pinned row when it can.
//
// Not safe for concurrent use.
type Bidirectional struct {
	g    *roadnet.Graph
	fwd  side
	bwd  side
	pins rows
}

type side struct {
	dist   []float64
	parent []roadnet.VertexID
	stamp  []uint32
	epoch  uint32
	heap   distHeap
}

func newSide(n int) side {
	return side{
		dist:   make([]float64, n),
		parent: make([]roadnet.VertexID, n),
		stamp:  make([]uint32, n),
	}
}

func (s *side) reset() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.heap = s.heap[:0]
}

func (s *side) seen(v roadnet.VertexID) bool { return s.stamp[v] == s.epoch }

func (s *side) relax(v roadnet.VertexID, d float64, from roadnet.VertexID) {
	if !s.seen(v) || d < s.dist[v] {
		s.stamp[v] = s.epoch
		s.dist[v] = d
		s.parent[v] = from
		s.heap.push(distItem{v, d})
	}
}

// NewBidirectional returns a bidirectional Dijkstra engine for g.
func NewBidirectional(g *roadnet.Graph) *Bidirectional {
	return &Bidirectional{g: g, fwd: newSide(g.N()), bwd: newSide(g.N()), pins: newRows(g)}
}

// Pin implements Pinner.
func (b *Bidirectional) Pin(src roadnet.VertexID, radius float64) { b.pins.pin(src, radius) }

// Dist returns the shortest-path cost from u to v, from a pinned row when
// one covers the pair and by bidirectional search otherwise.
func (b *Bidirectional) Dist(u, v roadnet.VertexID) float64 {
	if d, ok := b.pins.lookup(u, v); ok {
		return d
	}
	d, _ := b.search(u, v)
	return d
}

// Path returns a shortest path from u to v, or nil if unreachable.
func (b *Bidirectional) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	d, meet := b.search(u, v)
	if d == Inf {
		return nil
	}
	// Forward half: u .. meet.
	var rev []roadnet.VertexID
	for at := meet; at != -1; at = b.fwd.parent[at] {
		rev = append(rev, at)
		if at == u {
			break
		}
	}
	path := make([]roadnet.VertexID, 0, len(rev)+4)
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	// Backward half: meet .. v (parents point toward v).
	for at := b.bwd.parent[meet]; ; at = b.bwd.parent[at] {
		if at == -1 {
			break
		}
		path = append(path, at)
		if at == v {
			break
		}
	}
	return path
}

// search runs the bidirectional search and returns the shortest distance and
// the vertex where the two frontiers met.
func (b *Bidirectional) search(u, v roadnet.VertexID) (float64, roadnet.VertexID) {
	if u == v {
		return 0, u
	}
	b.fwd.reset()
	b.bwd.reset()
	b.fwd.relax(u, 0, -1)
	b.bwd.relax(v, 0, -1)

	best := Inf
	meet := roadnet.VertexID(-1)
	update := func(w roadnet.VertexID) {
		if b.fwd.seen(w) && b.bwd.seen(w) {
			if d := b.fwd.dist[w] + b.bwd.dist[w]; d < best {
				best = d
				meet = w
			}
		}
	}

	for len(b.fwd.heap) > 0 || len(b.bwd.heap) > 0 {
		// Termination: when the sum of the two frontier minima exceeds
		// the best meeting distance, no better path exists.
		fMin, bMin := Inf, Inf
		if len(b.fwd.heap) > 0 {
			fMin = b.fwd.heap[0].dist
		}
		if len(b.bwd.heap) > 0 {
			bMin = b.bwd.heap[0].dist
		}
		if fMin+bMin >= best {
			break
		}
		// Expand the smaller frontier.
		if fMin <= bMin {
			it := b.fwd.heap.pop()
			if it.dist > b.fwd.dist[it.v] {
				continue
			}
			ts, ws := b.g.Neighbors(it.v)
			for i, t := range ts {
				b.fwd.relax(t, it.dist+ws[i], it.v)
				update(t)
			}
		} else {
			it := b.bwd.heap.pop()
			if it.dist > b.bwd.dist[it.v] {
				continue
			}
			ts, ws := b.g.Neighbors(it.v)
			for i, t := range ts {
				b.bwd.relax(t, it.dist+ws[i], it.v)
				update(t)
			}
		}
	}
	return best, meet
}

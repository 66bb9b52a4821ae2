package sp

import (
	"repro/internal/roadnet"
)

// Pinner is implemented by per-goroutine engines that can hold one-to-many
// rows: Pin(src, radius) runs one Dijkstra from src, settling every vertex
// within radius meters, and until the row is replaced Dist(src, v) and
// Dist(v, src) for any settled v are answered from it in O(1). Queries the
// rows cannot answer fall through to the engine's own search.
//
// Rows change where a query is answered, never the answer: edge weights
// are exact (see roadnet.WeightQuantum), so a row and a point-to-point
// search return the same bits. An engine holds two rows and replaces the
// older one first; pinning a source that is already pinned at an equal or
// larger radius is a no-op. The graph is static, so rows are never
// invalidated.
//
// Only per-goroutine engines pin (Dijkstra, Bidirectional, and the cache
// facades that forward to them): a pin mutates the engine. SharedOracle
// implementations do not implement Pinner.
type Pinner interface {
	Pin(src roadnet.VertexID, radius float64)
}

// Pin pins a row from src in the engine beneath o's wrappers (see Unwrap),
// and does nothing when that engine is not a Pinner.
func Pin(o Oracle, src roadnet.VertexID, radius float64) {
	if p, ok := Unwrap(o).(Pinner); ok {
		p.Pin(src, radius)
	}
}

// row is one pinned one-to-many search: the exact distance from src to
// every vertex stamped with the current epoch, all of them within radius.
type row struct {
	src    roadnet.VertexID
	radius float64
	dist   []float64
	stamp  []uint32
	epoch  uint32
}

// rows is the two-row pin store an engine embeds. Its buffers are
// allocated on the first pin, so engines that are never pinned pay
// nothing.
type rows struct {
	g     *roadnet.Graph
	r     [2]row
	older int // index of the row the next new pin replaces
	heap  distHeap
}

func newRows(g *roadnet.Graph) rows {
	return rows{g: g, r: [2]row{{src: -1}, {src: -1}}}
}

// pin implements Pinner for the embedding engine.
func (p *rows) pin(src roadnet.VertexID, radius float64) {
	if !(radius >= 0) {
		return
	}
	i := p.older
	for j := range p.r {
		if p.r[j].src == src {
			if p.r[j].radius >= radius {
				return
			}
			i = j // widen this row in place
		}
	}
	if i == p.older {
		p.older = 1 - i
	}
	p.fill(&p.r[i], src, radius)
}

// fill runs a Dijkstra from src that never pushes a vertex beyond radius.
// When the heap empties, every stamped vertex is settled at its exact
// distance, which is what lets lookup trust a stamp alone.
func (p *rows) fill(r *row, src roadnet.VertexID, radius float64) {
	if r.dist == nil {
		r.dist = make([]float64, p.g.N())
		r.stamp = make([]uint32, p.g.N())
	}
	r.src, r.radius = src, radius
	r.epoch++
	if r.epoch == 0 {
		clear(r.stamp)
		r.epoch = 1
	}
	h := p.heap[:0]
	r.stamp[src] = r.epoch
	r.dist[src] = 0
	h.push(distItem{src, 0})
	for len(h) > 0 {
		it := h.pop()
		if it.dist > r.dist[it.v] {
			continue // stale entry
		}
		ts, ws := p.g.Neighbors(it.v)
		for k, t := range ts {
			d := it.dist + ws[k]
			if d <= radius && (r.stamp[t] != r.epoch || d < r.dist[t]) {
				r.stamp[t] = r.epoch
				r.dist[t] = d
				h.push(distItem{t, d})
			}
		}
	}
	p.heap = h
}

// lookup answers Dist(u, v) from a row whose source is one endpoint and
// which settled the other. The graph is undirected, so a row from v
// answers Dist(u, v) as well as Dist(v, u).
func (p *rows) lookup(u, v roadnet.VertexID) (float64, bool) {
	for j := range p.r {
		r := &p.r[j]
		switch r.src {
		case u:
			if r.stamp[v] == r.epoch {
				return r.dist[v], true
			}
		case v:
			if r.stamp[u] == r.epoch {
				return r.dist[u], true
			}
		}
	}
	return 0, false
}

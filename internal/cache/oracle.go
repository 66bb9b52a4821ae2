package cache

import (
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

// Default capacities from the paper (§VI): "one storing up to ten million
// shortest distances and the other storing up to ten thousand shortest paths
// (separate caches are used because more distances can be stored in memory,
// and shortest distance is needed more often than shortest path)".
const (
	DefaultDistEntries = 10_000_000
	DefaultPathEntries = 10_000
)

// Oracle wraps an sp.Oracle with the paper's two LRU caches, indexed by
// the combined key id(s)·|V| + id(e). The graph is undirected and weights
// are exact, so d(s, e) and d(e, s) are the same bits: distances are keyed
// by the unordered pair (min, max) and stored once. Paths are directional.
// Pins are forwarded to the inner engine (sp.Pinner), beneath the cache,
// so they change how misses are computed but not which lookups miss.
//
// Not safe for concurrent use (neither are the wrapped engines).
type Oracle struct {
	inner   sp.Oracle
	n       uint64
	dists   *LRU[float64]
	paths   *LRU[[]roadnet.VertexID]
	sampler *distSampler
}

// New returns a caching wrapper around inner for a graph with n vertices,
// with the given cache capacities. Capacities below 1 are clamped to 1.
func New(inner sp.Oracle, n int, distEntries, pathEntries int) *Oracle {
	return &Oracle{
		inner:   inner,
		n:       uint64(n),
		dists:   NewLRU[float64](distEntries),
		paths:   NewLRU[[]roadnet.VertexID](pathEntries),
		sampler: newDistSampler(),
	}
}

// NewDefault returns a caching wrapper with the paper's default capacities.
func NewDefault(inner sp.Oracle, n int) *Oracle {
	return New(inner, n, DefaultDistEntries, DefaultPathEntries)
}

func (o *Oracle) key(u, v roadnet.VertexID) uint64 {
	return uint64(u)*o.n + uint64(v)
}

// Pin implements sp.Pinner by forwarding to the inner engine; it is a
// no-op when that engine cannot pin.
func (o *Oracle) Pin(src roadnet.VertexID, radius float64) { sp.Pin(o.inner, src, radius) }

// Dist returns the shortest-path cost from u to v, consulting the distance
// cache first.
func (o *Oracle) Dist(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	start := o.sampler.start()
	k := o.key(min(u, v), max(u, v))
	if d, ok := o.dists.Get(k); ok {
		o.sampler.record(start, true)
		return d
	}
	d := o.inner.Dist(u, v)
	o.dists.Put(k, d)
	o.sampler.record(start, false)
	return d
}

// Path returns a shortest path from u to v, consulting the path cache first.
// The returned slice is shared with the cache and must not be modified.
func (o *Oracle) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	k := o.key(u, v)
	if p, ok := o.paths.Get(k); ok {
		return p
	}
	p := o.inner.Path(u, v)
	o.paths.Put(k, p)
	// The graph is undirected, so the reverse of a shortest path is a
	// shortest path (and an unreachable pair is unreachable both ways):
	// prime the opposite direction as Dist does.
	o.paths.Put(o.key(v, u), reversePath(p))
	return p
}

// reversePath returns a reversed copy of p; nil (unreachable) stays nil.
func reversePath(p []roadnet.VertexID) []roadnet.VertexID {
	if p == nil {
		return nil
	}
	r := make([]roadnet.VertexID, len(p))
	for i, v := range p {
		r[len(p)-1-i] = v
	}
	return r
}

// DistStats returns hit/miss counts of the distance cache.
func (o *Oracle) DistStats() (hits, misses uint64) { return o.dists.Stats() }

// PathStats returns hit/miss counts of the path cache.
func (o *Oracle) PathStats() (hits, misses uint64) { return o.paths.Stats() }

// DistLatency returns the sampled distance-lookup latency distributions,
// split by cache outcome (1 in distSampleEvery calls is timed). The
// returned histograms are live — read them only while the oracle is
// quiescent.
func (o *Oracle) DistLatency() (hit, miss *obs.Histogram) {
	return o.sampler.hit, o.sampler.miss
}

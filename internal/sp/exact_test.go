package sp

import (
	"math"
	"testing"

	"repro/internal/roadnet"
)

// exactGraph builds a graph of n vertices from byte triples (u, v, w). The
// weights are deliberately not multiples of the weight quantum, so Build's
// rounding is what makes the engines agree; a sparse triple list leaves
// the graph disconnected, so unreachable pairs are covered too.
func exactGraph(t *testing.T, n int, edges []byte) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(n)
	for i := 0; i+2 < len(edges); i += 3 {
		u, v := roadnet.VertexID(int(edges[i])%n), roadnet.VertexID(int(edges[i+1])%n)
		if u != v {
			b.AddEdge(u, v, 0.37+float64(edges[i+2])*1.37)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzExactOracles checks that pinned and unpinned Bidirectional and
// Dijkstra engines and HubLabels return the same bits as the
// Floyd–Warshall matrix for every pair, with rows pinned at fuzzed
// sources and radii: queries inside a row, outside its radius, and after a
// third pin has evicted the older row all must agree.
func FuzzExactOracles(f *testing.F) {
	f.Add([]byte{0, 1, 10, 1, 2, 200, 2, 3, 7, 3, 0, 90, 0, 2, 255, 4, 5, 1}, uint8(0), uint8(2), uint8(5), uint16(300), uint16(40), uint16(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(3), uint8(3), uint8(17), uint16(65535), uint16(900), uint16(2))
	ring := make([]byte, 0, 3*24)
	for i := 0; i < 24; i++ {
		ring = append(ring, byte(i), byte(i+1), byte(i*37))
	}
	f.Add(ring, uint8(0), uint8(12), uint8(6), uint16(500), uint16(500), uint16(1500))
	f.Fuzz(func(t *testing.T, edges []byte, a, b, c uint8, ra, rb, rc uint16) {
		const n = 24
		g := exactGraph(t, n, edges)
		m, err := NewMatrix(g)
		if err != nil {
			t.Fatal(err)
		}
		bidi, dij := NewBidirectional(g), NewDijkstra(g)
		engines := map[string]Oracle{
			"bidirectional":        NewBidirectional(g),
			"dijkstra":             NewDijkstra(g),
			"hublabels":            NewHubLabels(g),
			"pinned bidirectional": bidi,
			"pinned dijkstra":      dij,
		}
		check := func(stage string) {
			for u := roadnet.VertexID(0); u < n; u++ {
				for v := roadnet.VertexID(0); v < n; v++ {
					want := m.Dist(u, v)
					for name, e := range engines {
						if got := e.Dist(u, v); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: %s.Dist(%d,%d) = %v, matrix says %v", stage, name, u, v, got, want)
						}
					}
				}
			}
		}
		pin := func(src uint8, r uint16) {
			for _, p := range []Pinner{bidi, dij} {
				p.Pin(roadnet.VertexID(int(src)%n), float64(r)/4)
			}
		}
		pin(a, ra)
		pin(b, rb)
		check("two rows")
		pin(c, rc)
		check("third pin")
		sa, sb, sc := roadnet.VertexID(int(a)%n), roadnet.VertexID(int(b)%n), roadnet.VertexID(int(c)%n)
		if sa != sb && sa != sc && sb != sc {
			for _, pins := range []*rows{&bidi.pins, &dij.pins} {
				if got := [2]roadnet.VertexID{pins.r[0].src, pins.r[1].src}; got != [2]roadnet.VertexID{sc, sb} {
					t.Fatalf("rows hold sources %v after pinning %d, %d, %d; want the older row %d replaced", got, sa, sb, sc, sa)
				}
			}
		}
	})
}

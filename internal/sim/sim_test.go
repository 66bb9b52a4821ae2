package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

// testSetup builds a small city, an exact cached oracle, and a request
// stream shared by the integration tests.
func testSetup(t testing.TB, trips int) (*roadnet.Graph, sp.Oracle, []Request) {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 20, Cols: 20, Spacing: 400, Jitter: 0.2, WeightVar: 0.1, DropFrac: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	oracle := cache.New(sp.NewBidirectional(g), g.N(), 1<<20, 1<<14)
	reqs := genRequests(t, g, trips)
	return g, oracle, reqs
}

// genRequests produces a deterministic request stream without importing
// internal/trace (which would create an import cycle in tests).
func genRequests(t testing.TB, g *roadnet.Graph, n int) []Request {
	t.Helper()
	reqs := make([]Request, 0, n)
	nv := int32(g.N())
	// Simple LCG so the stream is stable across Go versions.
	state := int64(12345)
	next := func(mod int32) int32 {
		state = state*6364136223846793005 + 1442695040888963407
		v := int32((state >> 33) % int64(mod))
		if v < 0 {
			v += mod
		}
		return v
	}
	for i := 0; len(reqs) < n; i++ {
		s := roadnet.VertexID(next(nv))
		e := roadnet.VertexID(next(nv))
		if s == e || g.EuclideanDist(s, e) < 800 {
			continue
		}
		reqs = append(reqs, Request{
			ID:      int64(len(reqs)),
			Time:    float64(len(reqs)) * 5, // one request every 5 seconds
			Pickup:  s,
			Dropoff: e,
		})
	}
	return reqs
}

// TestSimulationAllAlgorithms runs the same workload through every matching
// algorithm and checks the service-guarantee invariants hold throughout.
func TestSimulationAllAlgorithms(t *testing.T) {
	g, oracle, reqs := testSetup(t, 120)
	for _, algo := range []Algorithm{
		AlgoTreeBasic, AlgoTreeSlack, AlgoTreeHotspot,
		AlgoBruteForce, AlgoBranchBound, AlgoMIP,
	} {
		t.Run(algo.String(), func(t *testing.T) {
			s, err := New(Config{
				Graph:       g,
				Oracle:      oracle,
				Servers:     25,
				Capacity:    4,
				Algorithm:   algo,
				MIPMaxNodes: 3000, // bound pathological MIP instances
				Seed:        42,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			m, err := s.Run(reqs)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			if m.Requests != len(reqs) {
				t.Fatalf("requests: got %d want %d", m.Requests, len(reqs))
			}
			if m.Matched+m.Rejected != m.Requests {
				t.Fatalf("matched %d + rejected %d != requests %d", m.Matched, m.Rejected, m.Requests)
			}
			if m.Matched == 0 {
				t.Fatal("no request matched — workload or dispatch broken")
			}
			if m.Completed != m.Matched {
				t.Fatalf("completed %d != matched %d after drain", m.Completed, m.Matched)
			}
			if m.Violations != 0 {
				t.Fatalf("%d service violations", m.Violations)
			}
			t.Logf("%s: %s", algo, m)
		})
	}
}

// TestSimulationDeterminism checks that the same seed and workload give
// identical outcomes.
func TestSimulationDeterminism(t *testing.T) {
	g, oracle, reqs := testSetup(t, 60)
	run := func() *Metrics {
		s, err := New(Config{Graph: g, Oracle: oracle, Servers: 15, Capacity: 4, Algorithm: AlgoTreeSlack, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Matched != b.Matched || a.Rejected != b.Rejected || a.Completed != b.Completed {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	if a.TotalRideMeters != b.TotalRideMeters {
		t.Fatalf("nondeterministic ride meters: %f vs %f", a.TotalRideMeters, b.TotalRideMeters)
	}
}

// TestMatchRateComparable checks the tree and exhaustive algorithms accept a
// similar share of requests: they solve the same matching problem, so large
// divergence indicates a bug (small divergence is expected because greedy
// assignment history differs).
func TestMatchRateComparable(t *testing.T) {
	g, oracle, reqs := testSetup(t, 100)
	rates := map[Algorithm]int{}
	for _, algo := range []Algorithm{AlgoTreeSlack, AlgoBranchBound} {
		s, err := New(Config{Graph: g, Oracle: oracle, Servers: 20, Capacity: 4, Algorithm: algo, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		rates[algo] = m.Matched
	}
	a, b := rates[AlgoTreeSlack], rates[AlgoBranchBound]
	if a == 0 || b == 0 {
		t.Fatalf("zero match rate: tree=%d bb=%d", a, b)
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > len(reqs)/5 {
		t.Fatalf("match rates diverge: tree=%d bb=%d of %d", a, b, len(reqs))
	}
}

// TestZeroServers checks constructor validation.
func TestZeroServers(t *testing.T) {
	g, oracle, _ := testSetup(t, 1)
	if _, err := New(Config{Graph: g, Oracle: oracle, Servers: 0}); err == nil {
		t.Fatal("expected error for zero servers")
	}
	if _, err := New(Config{Servers: 3}); err == nil {
		t.Fatal("expected error for missing graph/oracle")
	}
}

// TestMetricsPeelWrappedCache: a cache stack behind the retryable fault
// facade (faults.WrapOracle) must still report its counters through
// Simulator.Metrics, exactly as the unwrapped stack does.
func TestMetricsPeelWrappedCache(t *testing.T) {
	g, _, reqs := testSetup(t, 40)
	run := func(wrap bool) *Metrics {
		var oracle sp.Oracle = cache.New(sp.NewBidirectional(g), g.N(), 1<<20, 1<<14)
		if wrap {
			oracle = faults.WrapOracle(oracle, nil, sp.RetryOptions{})
		}
		s, err := New(Config{Graph: g, Oracle: oracle, Servers: 30, Capacity: 4, Algorithm: AlgoTreeSlack, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, wrapped := run(false), run(true)
	if plain.DistCacheHits+plain.DistCacheMisses == 0 {
		t.Fatal("unwrapped cache reported no distance lookups")
	}
	if wrapped.DistCacheHits != plain.DistCacheHits || wrapped.DistCacheMisses != plain.DistCacheMisses ||
		wrapped.PathCacheHits != plain.PathCacheHits || wrapped.PathCacheMisses != plain.PathCacheMisses {
		t.Fatalf("wrapped cache counters dist %d/%d path %d/%d, want dist %d/%d path %d/%d",
			wrapped.DistCacheHits, wrapped.DistCacheMisses, wrapped.PathCacheHits, wrapped.PathCacheMisses,
			plain.DistCacheHits, plain.DistCacheMisses, plain.PathCacheHits, plain.PathCacheMisses)
	}
	if wrapped.DistMissLatency.Count() == 0 {
		t.Fatal("wrapped cache reported no sampled miss latency")
	}
}

package sim

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sp"
	"repro/internal/spatial"
)

// Algorithm selects the matching algorithm a fleet runs.
type Algorithm int

// Matching algorithms (paper §VI-A/B).
const (
	AlgoTreeBasic Algorithm = iota
	AlgoTreeSlack
	AlgoTreeHotspot
	AlgoBruteForce
	AlgoBranchBound
	AlgoMIP
)

func (a Algorithm) String() string {
	switch a {
	case AlgoTreeBasic:
		return "ktree"
	case AlgoTreeSlack:
		return "ktree-slack"
	case AlgoTreeHotspot:
		return "ktree-hotspot"
	case AlgoBruteForce:
		return "bruteforce"
	case AlgoBranchBound:
		return "branchbound"
	case AlgoMIP:
		return "mip"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Request is one trip request submitted to the system. WaitSeconds and
// Epsilon, when positive, override the fleet-wide constraints for this
// request (the paper's individualized-constraint generalization, §I-A:
// "our proposed algorithms can be easily generalized to individualized
// waiting time and service constraints").
type Request struct {
	ID      int64
	Time    float64 // seconds since simulation start
	Pickup  roadnet.VertexID
	Dropoff roadnet.VertexID

	WaitSeconds float64 // per-request waiting constraint; 0 = fleet default
	Epsilon     float64 // per-request service constraint; 0 = fleet default
}

// Config parameterizes a simulation run. Zero values select the defaults
// noted per field.
type Config struct {
	Graph  *roadnet.Graph
	Oracle sp.Oracle

	Servers  int
	Capacity int // max simultaneous passengers; 0 = unlimited

	WaitSeconds float64 // waiting-time constraint w (default 600 = 10 min)
	Epsilon     float64 // service constraint ε (default 0.2 = 20%)

	Algorithm    Algorithm
	HotspotTheta float64 // meters (AlgoTreeHotspot; default 300)
	// LazyInvalidation defers kinetic-tree pruning on movement to the
	// next request (paper §IV-A); applies to the tree algorithms only.
	LazyInvalidation bool
	MaxTreeNodes     int // candidate-tree size cap; 0 = 200000
	MIPMaxNodes      int // MIP branch&bound node cap; 0 = solver default
	// MIPTimeBudget bounds each MIP trial's wall time; the warm-started
	// incumbent is returned on truncation (0 = 50ms; negative = unbounded).
	MIPTimeBudget time.Duration

	ReportInterval float64 // seconds between vehicle position reports (default 30)
	CellSize       float64 // spatial-index cell size in meters (default 1000)

	// AutoTune derives the capacity knobs left unset from the fleet size
	// and graph extent instead of using the static defaults: CellSize via
	// DeriveCellSize when zero, and the dispatch engine's shard count via
	// DeriveShards when Shards is zero. Explicitly set values always win.
	// Tuning never changes matching decisions — the grid's candidate
	// superset is exactly filtered and shard count is equivalence-proven
	// — only throughput. The values actually used are surfaced in
	// Metrics (TunedShards, TunedCellSize).
	AutoTune bool

	Seed int64

	// Workers, Shards, and BatchWindow configure the sharded concurrent
	// dispatch engine (internal/dispatch): Workers sizes its trial worker
	// pool, Shards partitions the fleet (default: one shard per worker),
	// and BatchWindow, when positive, collects requests for that many
	// seconds and matches them as a batch. The sequential Simulator
	// ignores all three; callers such as cmd/ridesim select the engine
	// when Workers or Shards is set.
	Workers     int
	Shards      int
	BatchWindow float64

	// Trace, when non-nil, captures per-request lifecycle events
	// (trialed, matched, rejected, completed) into ring buffers — one per
	// engine goroutine — drainable to JSONL. Tracing changes no control
	// flow, so traced runs produce bit-identical assignments.
	Trace *obs.Tracer
	// Live, when non-nil, receives atomically readable progress counters
	// that the interval reporter and /metrics endpoint may poll mid-run.
	Live *obs.Live
	// Faults, when non-nil, wires the deterministic fault-injection
	// hooks (internal/faults) into the engine's worker seam: per-shard
	// fan-out stalls and slowed trial insertions. Injected worker
	// faults are latency-only, so assignments stay bit-identical to a
	// fault-free run; a nil injector (the default) is proven
	// bit-identical to an unhooked engine by the equivalence tests.
	Faults *faults.Injector
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.WaitSeconds == 0 {
		out.WaitSeconds = 600
	}
	if out.Epsilon == 0 {
		out.Epsilon = 0.2
	}
	if out.HotspotTheta == 0 {
		out.HotspotTheta = 300
	}
	if out.MaxTreeNodes == 0 {
		out.MaxTreeNodes = 200000
	}
	if out.ReportInterval == 0 {
		out.ReportInterval = 30
	}
	if out.CellSize == 0 {
		if out.AutoTune {
			out.CellSize = DeriveCellSize(out.Graph, out.Servers)
		} else {
			out.CellSize = DefaultCellSize
		}
	}
	if out.MIPTimeBudget == 0 {
		out.MIPTimeBudget = 50 * time.Millisecond
	}
	return out
}

// Simulator replays a request stream against a fleet.
//
// Not safe for concurrent use: the matching path is single-threaded, as in
// the paper's evaluation. internal/dispatch provides the concurrent engine;
// both drive the same Worker primitives, so for a fixed seed they produce
// identical matches.
type Simulator struct {
	cfg        Config
	graph      *roadnet.Graph
	oracle     sp.Oracle
	w          *Worker
	grid       *spatial.GridIndex
	vehicles   []*Vehicle
	metrics    *Metrics
	clock      float64
	reports    ReportHeap
	candidates []spatial.ObjectID // scratch
	ring       *obs.Ring          // lifecycle events (nil = tracing off)
	live       *obs.Live          // live counters (nil = off)
	fault      *faults.WorkerHook // injected stalls/slow trials (nil = off)

	drainRoundCap int   // test hook; 0 selects DefaultDrainRoundCap
	drainErr      error // sticky Drain truncation error, surfaced by CheckInvariants
}

// DrainStep is the simulated seconds each Drain round advances the fleet.
const DrainStep = 3600

// DefaultDrainRoundCap bounds Drain to ~11 simulated years. It is a sanity
// cap against a wedged fleet (a vehicle that never finishes its schedule),
// not a truncation point for long-but-finite schedules: hitting it is
// reported as an explicit error instead of silently abandoning in-flight
// passengers.
const DefaultDrainRoundCap = 100000

// New creates a simulator with an idle fleet placed at random vertices
// ("a vehicle is initialized to a random vertex in the city", §VI).
func New(cfg Config) (*Simulator, error) {
	cfg = cfg.withDefaults()
	if cfg.Graph == nil || cfg.Oracle == nil {
		return nil, fmt.Errorf("sim: Graph and Oracle are required")
	}
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("sim: need at least one server, got %d", cfg.Servers)
	}
	minX, minY, maxX, maxY := cfg.Graph.Bounds()
	grid, err := spatial.NewGridIndex(minX, minY, maxX, maxY, cfg.CellSize)
	if err != nil {
		return nil, err
	}
	metrics := newMetrics()
	metrics.SetTuning(1, cfg.CellSize, cfg.AutoTune)
	s := &Simulator{
		cfg:     cfg,
		graph:   cfg.Graph,
		oracle:  cfg.Oracle,
		w:       NewWorker(cfg, cfg.Oracle, metrics),
		grid:    grid,
		metrics: metrics,
		ring:    cfg.Trace.Ring("sim"),
		live:    cfg.Live,
		fault:   cfg.Faults.Worker(),
	}
	s.w.SetTrace(s.ring, s.live)
	for i, p := range Placements(cfg) {
		v := s.w.NewVehicle(i, p.Loc)
		s.vehicles = append(s.vehicles, v)
		x, y := cfg.Graph.Coord(v.loc)
		s.grid.Insert(spatial.ObjectID(i), x, y)
		// Stagger position reports across the fleet.
		s.reports.Push(Report{Due: p.FirstReport, Veh: i})
	}
	return s, nil
}

// Metrics returns the accumulated measurements. When the oracle stack
// (found beneath any wrappers by CacheStack) reports cache counters they
// are refreshed into the metrics here, so the snapshot always carries the
// current cache efficacy.
func (s *Simulator) Metrics() *Metrics {
	cs, cls := CacheStack(s.oracle)
	if cs != nil {
		dh, dm := cs.DistStats()
		ph, pm := cs.PathStats()
		s.metrics.SetCacheStats(dh, dm, ph, pm)
	}
	if cls != nil {
		s.metrics.SetDistLatency(cls.DistLatency())
	}
	return s.metrics
}

// advanceTo forwards to the worker; kept as a method because motion tests
// exercise it directly.
func (s *Simulator) advanceTo(v *Vehicle, t float64) { s.w.AdvanceTo(v, t) }

// drainReportsUntil advances all vehicles whose position report is due
// before time t and refreshes their index entries. Each due vehicle is
// rescheduled in place with ReplaceMin, so the loop touches no heap
// storage beyond the existing backing array.
func (s *Simulator) drainReportsUntil(t float64) {
	for s.reports.Len() > 0 && s.reports.Min().Due <= t {
		r := s.reports.Min()
		v := s.vehicles[r.Veh]
		s.w.AdvanceTo(v, r.Due)
		x, y := s.graph.Coord(v.loc)
		s.grid.Update(spatial.ObjectID(r.Veh), x, y)
		s.reports.ReplaceMin(Report{Due: r.Due + s.cfg.ReportInterval, Veh: r.Veh})
	}
}

// Submit processes one request at its arrival time: it advances the clock,
// finds candidate servers via the spatial index, trial-schedules the request
// on each, and commits it to the cheapest (paper §I-A: "find the vehicle
// that minimizes the overall trip cost for the augmented valid trip
// schedule"). It reports whether the request was matched and to which
// vehicle.
func (s *Simulator) Submit(req Request) (matched bool, vehID int) {
	matchStart := s.ring.SpanStart()
	if req.Time < s.clock {
		req.Time = s.clock // tolerate slightly out-of-order input
	}
	s.drainReportsUntil(req.Time)
	s.clock = req.Time
	s.metrics.Requests++
	s.live.AddRequests(1)

	waitMeters, eps := s.w.Budget(req)
	px, py := s.graph.Coord(req.Pickup)
	// Candidate radius: the waiting budget plus the maximum drift since a
	// vehicle's last position report. The grid returns candidates sorted by
	// ID, which fixes the tie-breaking order.
	s.candidates = s.grid.Within(s.candidates[:0], px, py, s.w.CandidateRadius(waitMeters))
	if len(s.candidates) > 0 {
		s.w.PinRequest(req, waitMeters, eps)
	}

	s.fault.BeforeFanout(req.ID, req.Time)
	started := time.Now() //vetkit:allow determinism ACRT metric only; candidate selection depends on trials, not time
	bestVeh := -1
	var best Trial
	for _, id := range s.candidates {
		v := s.vehicles[int(id)]
		s.fault.BeforeTrial(req.ID, req.Time)
		s.w.AdvanceTo(v, req.Time)
		tr, ok := s.w.Trial(v, req, px, py, waitMeters, eps)
		if !ok {
			continue
		}
		if bestVeh < 0 || tr.Cost < best.Cost {
			best.Release() // dethroned candidate will never commit
			best = tr
			bestVeh = int(id)
		} else {
			tr.Release()
		}
	}
	s.metrics.recordACRT(time.Since(started)) //vetkit:allow determinism ACRT metric only
	s.ring.Emit(obs.KindTrialed, req.ID, req.Time, int64(len(s.candidates)))

	if bestVeh < 0 {
		s.metrics.Rejected++
		s.live.AddRejected(1)
		s.ring.Emit(obs.KindRejected, req.ID, req.Time, -1)
		s.emitMatchSpan(req, matchStart, -1)
		return false, -1
	}
	// Trial results are only valid against the vehicle state they were
	// computed from; if later trials were run on other vehicles this one's
	// state is unchanged, so the trial is still fresh.
	s.w.Commit(s.vehicles[bestVeh], best)
	s.ring.Emit(obs.KindMatched, req.ID, req.Time, int64(bestVeh))
	s.emitMatchSpan(req, matchStart, int64(bestVeh))
	return true, bestVeh
}

// emitMatchSpan closes the sequential simulator's match span around one
// Submit — the whole candidate scan, trial loop, and commit. There is no
// fan-out here, so no phase1 spans nest under it: match self time is the
// full span.
func (s *Simulator) emitMatchSpan(req Request, start int64, veh int64) {
	s.ring.EmitSpan(obs.Span{
		ID:     obs.SpanID(req.ID, obs.StageMatch, 0),
		Parent: obs.RootSpanID(req.ID),
		Req:    req.ID, Stage: obs.StageMatch, T: req.Time,
		Arg: veh, Start: start,
	})
}

// Run replays all requests (which must be sorted by time) and then lets the
// fleet finish its committed schedules. It returns the metrics, plus
// Drain's truncation error if the fleet could not finish within the
// drain-round sanity cap — the metrics are still returned, but they omit
// the stuck vehicles' completions.
func (s *Simulator) Run(reqs []Request) (*Metrics, error) {
	for i := range reqs {
		s.Submit(reqs[i])
	}
	err := s.Drain()
	return s.Metrics(), err
}

// Drain advances every vehicle until its committed schedule is finished, so
// completion statistics cover all matched requests. A fleet still busy
// after the sanity cap (DefaultDrainRoundCap rounds of DrainStep seconds)
// is wedged; Drain returns an explicit error naming the stuck vehicles
// instead of silently dropping their in-flight passengers, and
// CheckInvariants reports the same error afterwards.
func (s *Simulator) Drain() error {
	s.drainErr = nil // a drain that completes clears any earlier truncation
	rounds := s.drainRoundCap
	if rounds <= 0 {
		rounds = DefaultDrainRoundCap
	}
	idle := false
	for round := 0; round < rounds && !idle; round++ {
		idle = true
		s.clock += DrainStep
		for _, v := range s.vehicles {
			if v.Busy() {
				s.w.AdvanceTo(v, s.clock)
				idle = idle && !v.Busy()
			}
		}
	}
	if !idle {
		stuck := 0
		for _, v := range s.vehicles {
			if v.Busy() {
				stuck++
			}
		}
		s.drainErr = fmt.Errorf("sim: drain truncated after %d rounds (%.0f s): %d vehicles still busy", rounds, float64(rounds)*DrainStep, stuck)
	}
	for _, v := range s.vehicles {
		s.metrics.AddOccupancy(v.peakOnboard)
	}
	return s.drainErr
}

// CheckInvariants verifies cross-cutting simulator invariants; tests call it
// after runs. It returns an error describing the first violation found.
func (s *Simulator) CheckInvariants() error {
	if s.drainErr != nil {
		return s.drainErr
	}
	if s.metrics.Violations > 0 {
		return fmt.Errorf("sim: %d service-guarantee violations", s.metrics.Violations)
	}
	for _, v := range s.vehicles {
		if err := s.w.CheckVehicle(v); err != nil {
			return fmt.Errorf("sim: vehicle %d: %w", v.id, err)
		}
	}
	return nil
}

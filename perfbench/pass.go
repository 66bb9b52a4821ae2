package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sim"
)

// passOpts selects how one pass drives the engine.
type passOpts struct {
	// rate > 0 paces the stream open loop through ingest.Gateway at this
	// many requests per wall second; 0 submits closed loop.
	rate float64
	// traced attaches a tracer and times the oracle.
	traced bool
	// check validates the fleet's trees every checkEvery requests and
	// once before Drain.
	check bool
	// traceOut, when set on a traced pass, receives the span JSONL.
	traceOut string
	// memstats records allocation and GC deltas over the timed loop.
	memstats bool
	// drain lets the fleet finish every committed trip after the loop, so
	// every trip's service guarantee is checked, not only those completed
	// during the loop. It costs 10 to 15 s on city-offpeak, so only the
	// traced pass drains; the determinism gate ties the other passes to it.
	drain bool
}

// fingerprint holds the counters, taken at the end of the loop, that must
// be identical whenever the same inputs are matched again: in a repeat,
// traced or untraced, closed loop or through the gateway.
type fingerprint struct {
	Requests, Matched, Rejected int
	Trials, TrialFailures       int
	OverBudget, TreeNodesMax    int
	DistCalls, PathCalls        uint64
	DistHits, DistMisses        uint64
	PathHits, PathMisses        uint64
	Completed                   int
	AssignmentDigest            uint64
}

// pass is the outcome of matching one request stream on a fresh engine.
type pass struct {
	setup   time.Duration
	loop    time.Duration   // wall time of the timed loop, checkpoints excluded
	submit  []time.Duration // per request, indexed by request ID
	sojourn []time.Duration // paced: due time to Submit return, by ID
	genLag  []time.Duration // paced: producer lateness against due time
	admit   []time.Duration // paced: time in Producer.Submit
	fp      fingerprint
	// m and oracle are the engine metrics and oracle counters at the end
	// of the loop, before any Drain moves the fleet on.
	m          *sim.Metrics
	oracle     probeOracle
	violations int          // after Drain, when drained
	ingress    *sim.Metrics // paced: the gateway's counters
	refused    int          // paced: submissions the gateway did not admit

	// Checked passes only.
	invalidTrees int
	firstInvalid error

	// Traced passes only.
	spans       []obs.SpanRecord
	attribution *obs.Attribution
	dropped     int

	// memstats passes only.
	allocBytes, mallocs uint64
	gcPause             time.Duration
}

// setupEngine builds what every pass starts from: the road network, the
// program's default oracle stack, and the dispatch engine. This is the
// set-up the setup_s metric times.
func setupEngine(s spec, fleetSeed int64, timed bool, tracer *obs.Tracer) (*dispatch.Engine, *probeOracle, error) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: s.scale, Trips: 1, Seed: worldSeed})
	if err != nil {
		return nil, nil, err
	}
	oracle := &probeOracle{inner: world.NewOracle(), timed: timed}
	eng, err := dispatch.New(sim.Config{
		Graph:       world.Graph,
		Oracle:      oracle,
		Servers:     s.fleet,
		Capacity:    4,
		WaitSeconds: s.wait,
		Algorithm:   sim.AlgoTreeSlack,
		AutoTune:    true,
		Workers:     1,
		Seed:        fleetSeed,
		Trace:       tracer,
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	return eng, oracle, nil
}

// timeSetup times one set-up and discards the engine.
func timeSetup(s spec, fleetSeed int64) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	eng, _, err := setupEngine(s, fleetSeed, false, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	eng.Close()
	return d, nil
}

// runPass matches reqs (IDs 0..len-1, time-sorted) on a fresh engine.
func runPass(s spec, reqs []sim.Request, fleetSeed int64, o passOpts) (*pass, error) {
	runtime.GC()
	var tracer *obs.Tracer
	if o.traced {
		// Per ring: at most one trialed and one completed event, and one
		// span, per request, plus the gateway's; nothing may drop.
		tracer = obs.NewTracer(4*len(reqs) + 64)
	}
	start := time.Now()
	eng, oracle, err := setupEngine(s, fleetSeed, o.traced, tracer)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	p := &pass{
		setup:  time.Since(start),
		submit: make([]time.Duration, len(reqs)),
	}

	var checking time.Duration
	check := func() {
		t := time.Now()
		if err := eng.CheckInvariants(); err != nil {
			p.invalidTrees++
			if p.firstInvalid == nil {
				p.firstInvalid = err
			}
		}
		// Collect the check's garbage now, off the clock; left to the
		// background collector it slowed the next Submits by a fifth on
		// city-offpeak.
		runtime.GC()
		checking += time.Since(t)
	}
	submit := func(r sim.Request) {
		t := time.Now()
		eng.Submit(r)
		p.submit[r.ID] = time.Since(t)
		if o.check && (r.ID+1)%checkEvery == 0 {
			check()
		}
	}

	var ms0, ms1 runtime.MemStats
	if o.memstats {
		runtime.ReadMemStats(&ms0)
	}
	loopStart := time.Now()
	if o.rate > 0 {
		p.paced(eng, reqs, o.rate, tracer, s.wait, submit)
	} else {
		for _, r := range reqs {
			submit(r)
		}
	}
	p.loop = time.Since(loopStart) - checking
	if o.memstats {
		runtime.ReadMemStats(&ms1)
		p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		p.mallocs = ms1.Mallocs - ms0.Mallocs
		p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	}
	p.m = eng.Metrics()
	p.oracle = *oracle
	p.oracle.inner = nil // keep the counters, not the cache
	p.fp = fingerprintOf(eng, p.m, oracle, reqs)
	p.violations = p.m.Violations
	if o.check {
		check()
	}
	if o.drain {
		if err := eng.Drain(); err != nil {
			return nil, err
		}
		p.violations = eng.Metrics().Violations
	}
	if o.traced {
		if err := p.readTrace(tracer, o.traceOut); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// paced runs the open loop: one producer goroutine submits request i at
// its due time t0 + i/rate; this goroutine drains the gateway into the
// engine. A request's sojourn runs from its due time to its Submit
// return, so a stall counts against every request queued behind it.
func (p *pass) paced(eng *dispatch.Engine, reqs []sim.Request, rate float64, tracer *obs.Tracer, wait float64, submit func(sim.Request)) {
	n := len(reqs)
	p.sojourn = make([]time.Duration, n)
	p.genLag = make([]time.Duration, n)
	p.admit = make([]time.Duration, n)
	gw := ingest.New(ingest.Config{Queues: eng.Shards(), Policy: ingest.Block, WaitSeconds: wait, Trace: tracer})
	prod := gw.Producers(1)[0]
	t0 := time.Now()
	due := func(i int64) time.Time { return t0.Add(time.Duration(float64(i) * float64(time.Second) / rate)) }

	refused := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer prod.Close()
		for i, r := range reqs {
			d := due(int64(i))
			if w := time.Until(d); w > 0 {
				time.Sleep(w)
			}
			t := time.Now()
			p.genLag[i] = t.Sub(d)
			if !prod.Submit(r) {
				refused++
			}
			p.admit[i] = time.Since(t)
		}
	}()
	gw.Drain(func(r sim.Request) {
		submit(r)
		p.sojourn[r.ID] = time.Since(due(r.ID))
	})
	wg.Wait()
	p.refused = refused
	p.ingress = gw.Metrics()
}

// fingerprintOf collects the deterministic counters.
func fingerprintOf(eng *dispatch.Engine, m *sim.Metrics, o *probeOracle, reqs []sim.Request) fingerprint {
	h := fnv.New64a()
	var buf [17]byte
	for _, r := range reqs {
		veh, ok := eng.Assignment(r.ID)
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(int64(veh)))
		buf[16] = 0
		if ok {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	return fingerprint{
		Requests: m.Requests, Matched: m.Matched, Rejected: m.Rejected,
		Trials: m.TrialCalls, TrialFailures: m.TrialFailures,
		OverBudget: m.OverBudget, TreeNodesMax: m.TreeNodesMax,
		DistCalls: o.distCalls, PathCalls: o.pathCalls,
		DistHits: m.DistCacheHits, DistMisses: m.DistCacheMisses,
		PathHits: m.PathCacheHits, PathMisses: m.PathCacheMisses,
		Completed:        m.Completed,
		AssignmentDigest: h.Sum64(),
	}
}

// readTrace drains the tracer to JSONL, writes it to path (when set) for
// cmd/tracetool, and reads it back with obs.ReadTrace for attribution.
func (p *pass) readTrace(tracer *obs.Tracer, path string) error {
	var buf bytes.Buffer
	_, dropped, err := tracer.Drain(&buf)
	if err != nil {
		return fmt.Errorf("drain trace: %w", err)
	}
	p.dropped = dropped
	if path != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	tr, err := obs.ReadTrace(&buf)
	if err != nil {
		return fmt.Errorf("read trace: %w", err)
	}
	p.spans = tr.Spans
	p.attribution, _ = obs.Analyze(tr)
	return nil
}

// candidates sums the phase1 span Arg (vehicles the grid returned).
func (p *pass) candidates() int64 {
	var n int64
	for _, s := range p.spans {
		if s.Stage == "phase1" {
			n += s.Arg
		}
	}
	return n
}

// stageNs sums the durations of one stage's spans. With one worker the
// shards' phase1 spans run back to back inside the match span, so their
// sum is phase1's share of the match wall time.
func (p *pass) stageNs(stage string) int64 {
	var n int64
	for _, s := range p.spans {
		if s.Stage == stage {
			n += s.DurationNs()
		}
	}
	return n
}

// trialTime is the summed wall time of every trial insertion, from the
// engine's ART buckets.
func trialTime(m *sim.Metrics) time.Duration {
	var total time.Duration
	for _, k := range m.ARTBuckets() {
		d, c := m.ART(k)
		total += d * time.Duration(c)
	}
	return total
}

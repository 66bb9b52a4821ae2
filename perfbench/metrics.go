package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// metricDef names one reported metric, its unit, and the layer it
// describes. BENCHMARK.json lists the same names and units; README.md
// maps each per-layer metric to the end-to-end metric it should move.
type metricDef struct{ name, unit, layer string }

// tail is the percentile reported for every latency. A run pools at least
// 540 post-warm-up Submit samples, and on paced 180 sojourn samples per
// rate, so p95 and even p98 would have ten samples beyond them; but on
// city-offpeak their spread between seeds (17% and 21%) came too close to
// the largest usable bound (25%), where p90's was 12%.
const tail = 0.90

// minSetups is how many set-ups a run times for setup_s. On the 955-vertex
// worlds one set-up takes about 30 ms, and the median of five still moved
// by a fifth between runs.
const minSetups = 9

var endToEnd = []metricDef{
	{"setup_s", "s", "roadnet+sp+dispatch: exp.BuildWorld, World.NewOracle, dispatch.New (median of at least 9)"},
	{"req_per_s", "1/s", "closed-loop requests per second (paced: its closed-loop replay)"},
	{"match_p50_ms", "ms", "Engine.Submit wall time, median"},
	{"match_p90_ms", "ms", "Engine.Submit wall time, 90th percentile"},
	{"sojourn_p50_ms.lo", "ms", "due time to Submit return at the low offered rate (closed loop: Submit time)"},
	{"sojourn_p90_ms.lo", "ms", "same, 90th percentile"},
	{"sojourn_p50_ms.hi", "ms", "due time to Submit return at the high offered rate (closed loop: Submit time)"},
	{"sojourn_p90_ms.hi", "ms", "same, 90th percentile"},
	{"match_rate", "ratio", "matched / offered"},
	{"peak_rss_mb", "MB", "process VmHWM"},
}

var perLayer = []metricDef{
	{"ingest.admit_us", "us", "ingest: mean time in Producer.Submit"},
	{"ingest.residence_p50_ms", "ms", "ingest: admission to sink call (gateway IngressWait)"},
	{"ingest.residence_p90_ms", "ms", "ingest: same, 90th percentile"},
	{"ingest.queue_peak", "count", "ingest: deepest admission queue"},
	{"ingest.gen_lag_p90_ms", "ms", "ingest: generator lateness against due time (validity)"},
	{"dispatch.match_self_us", "us", "dispatch: match span minus phase1, per request"},
	{"dispatch.phase1_ms", "ms", "dispatch: phase1 spans per request"},
	{"dispatch.alloc_kb_per_req", "KiB", "dispatch: heap bytes allocated per request (untraced loop)"},
	{"dispatch.allocs_per_req", "count", "dispatch: heap objects allocated per request (untraced loop)"},
	{"dispatch.gc_pause_ms", "ms", "dispatch: GC pause over the untraced loop"},
	{"sim.move_ms_per_req", "ms", "sim: phase1 minus trial time, per request"},
	{"sim.path_calls_per_req", "count", "sim: oracle Path calls per request"},
	{"spatial.candidates_per_req", "count", "spatial: grid candidates per request (phase1 Arg)"},
	{"core.trials_per_req", "count", "core: TrialInsert calls per request"},
	{"core.trial_feasible_frac", "ratio", "core: feasible trials / trials"},
	{"core.trial_us", "us", "core: mean trial time"},
	{"core.art_us.k0", "us", "core: ART, vehicle with 0 scheduled requests"},
	{"core.art_us.k1", "us", "core: ART, 1 scheduled request"},
	{"core.art_us.k2", "us", "core: ART, 2 scheduled requests"},
	{"core.art_us.k3plus", "us", "core: ART, 3 or more scheduled requests"},
	{"core.tree_nodes_max", "count", "core: largest committed kinetic tree"},
	{"core.over_budget", "count", "core: trials aborted by the tree-size budget"},
	{"core.invalid_tree_checks", "count", "core: CheckInvariants failures at checkpoints"},
	{"sp.dist_calls_per_req", "count", "sp: oracle Dist calls per request"},
	{"sp.dist_us", "us", "sp: mean Dist call (1 in 16 timed)"},
	{"sp.path_us", "us", "sp: mean Path call"},
	{"sp.oracle_wall_frac", "ratio", "sp: oracle time / Submit time"},
	{"cache.dist_hit_rate", "ratio", "cache: distance-cache hit rate"},
	{"cache.miss_per_req", "count", "cache: distance-cache misses per request"},
	{"cache.miss_us", "us", "cache: mean sampled miss (DistMissLatency)"},
	{"cache.hit_us", "us", "cache: mean sampled hit (DistHitLatency)"},
	{"obs.trace_overhead_pct", "%", "obs: traced vs untraced closed-loop Submit time"},
	{"obs.spans_dropped", "count", "obs: trace records lost to ring overflow (must be 0)"},
	{"obs.queue_wall_frac", "ratio", "obs: queue share of request wall time (obs.Analyze)"},
}

// outcome is what a run measured and which gates it failed.
type outcome struct {
	values    map[string]float64
	notes     []string
	problems  []string
	attempted int
	failed    int
	passes    int
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (r *outcome) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
func (r *outcome) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check applies the correctness gate to one pass of n requests.
func (r *outcome) check(label string, p *pass, n int) {
	r.passes++
	r.attempted += n
	lost := n - (p.fp.Matched + p.fp.Rejected)
	if p.violations != 0 {
		r.failf("%s: %d service-guarantee violations", label, p.violations)
	}
	if p.fp.Requests != p.fp.Matched+p.fp.Rejected {
		r.failf("%s: matched %d + rejected %d != requests %d", label, p.fp.Matched, p.fp.Rejected, p.fp.Requests)
	}
	if p.ingress != nil {
		shed := p.ingress.Shed() + p.refused
		if p.ingress.Admitted != n || shed != 0 {
			r.failf("%s: admitted %d of %d offered, %d shed", label, p.ingress.Admitted, n, shed)
		}
	}
	if lost != 0 {
		r.failf("%s: %d of %d requests neither matched nor rejected", label, lost, n)
		r.failed += lost
	}
	if p.dropped != 0 {
		r.failf("%s: %d trace records dropped", label, p.dropped)
	}
}

// same applies the determinism gate: b must repeat a's counters exactly.
func (r *outcome) same(label string, a, b *pass) {
	if a.fp != b.fp {
		r.failf("determinism: %s differs:\n    %+v\n    %+v", label, a.fp, b.fp)
	}
}

// endToEndRun measures untraced passes: one per offered rate on the paced
// workload, then closed-loop passes until o.seconds of loop time is
// measured, at least two. Every pass must repeat the first one's counters.
func endToEndRun(o options, reqs []sim.Request) (*outcome, error) {
	s := o.spec
	n := len(reqs)
	r := newOutcome()
	var closed, all []*pass
	measured := 0.0
	sojourns := map[string][]time.Duration{}
	for _, rt := range s.rates {
		p, err := runPass(s, reqs, o.fleetSeed, passOpts{rate: rt.perSec})
		if err != nil {
			return nil, err
		}
		r.check("paced "+rt.name, p, n)
		sojourns[rt.name] = p.sojourn[warmup(n):]
		measured += p.loop.Seconds()
		all = append(all, p)
	}
	for len(closed) < 2 || measured < o.seconds {
		p, err := runPass(s, reqs, o.fleetSeed, passOpts{})
		if err != nil {
			return nil, err
		}
		r.check(fmt.Sprintf("closed pass %d", len(closed)+1), p, n)
		measured += p.loop.Seconds()
		closed = append(closed, p)
		all = append(all, p)
	}
	for _, p := range all[1:] {
		r.same("repeat", all[0], p)
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var setups []time.Duration
	var match []time.Duration
	for _, p := range all {
		setups = append(setups, p.setup)
		match = append(match, p.submit[warmup(n):]...)
	}
	for len(setups) < minSetups {
		d, err := timeSetup(s, o.fleetSeed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	var rates []float64
	for _, p := range closed {
		rates = append(rates, float64(n)/p.loop.Seconds())
	}

	v := r.values
	v["setup_s"] = median(secs(setups))
	v["req_per_s"] = median(rates)
	v["match_p50_ms"] = ms(quantile(match, 0.5))
	v["match_p90_ms"] = ms(quantile(match, tail))
	for _, rt := range []string{"lo", "hi"} {
		sj, ok := sojourns[rt]
		if !ok {
			sj = match // closed loop: a request is due when the client issues it
		}
		v["sojourn_p50_ms."+rt] = ms(quantile(sj, 0.5))
		v["sojourn_p90_ms."+rt] = ms(quantile(sj, tail))
	}
	v["match_rate"] = float64(closed[0].fp.Matched) / float64(n)
	v["peak_rss_mb"] = rss

	r.notef("fail_frac %.4g (failed / offered)", float64(r.failed)/float64(r.attempted))
	r.notef("%d closed-loop passes at %.4g req/s, %.2f s measured; %d Submit samples after a %d-request warm-up", len(closed), rates, measured, len(match), warmup(n))
	for _, rt := range s.rates {
		r.notef("sojourn %s at %g req/s: %d samples", rt.name, rt.perSec, len(sojourns[rt.name]))
	}
	r.notef("setup samples (s): %v", secs(setups))
	return r, nil
}

// tracedRun measures per-layer metrics: an untraced closed-loop pass (A),
// a traced pass on the same inputs (B; paced at the high rate on the
// paced workload), and a traced closed-loop repeat (C). A, B and C must
// agree on every deterministic counter, and B and C on candidates too.
func tracedRun(o options, reqs []sim.Request) (*outcome, error) {
	s := o.spec
	n := len(reqs)
	r := newOutcome()
	a, err := runPass(s, reqs, o.fleetSeed, passOpts{memstats: true})
	if err != nil {
		return nil, err
	}
	r.check("untraced", a, n)
	var hi float64
	if len(s.rates) > 0 {
		hi = s.rates[len(s.rates)-1].perSec
	}
	b, err := runPass(s, reqs, o.fleetSeed, passOpts{rate: hi, traced: true, check: true, drain: true, traceOut: traceFile(o)})
	if err != nil {
		return nil, err
	}
	r.check("traced", b, n)
	// C skips the checkpoints: their garbage slows the Submits after them
	// and would be counted as tracing overhead.
	c, err := runPass(s, reqs, o.fleetSeed, passOpts{traced: true})
	if err != nil {
		return nil, err
	}
	r.check("traced repeat", c, n)
	r.same("traced vs untraced", a, b)
	r.same("traced repeat vs untraced", a, c)
	if cb, cc := b.candidates(), c.candidates(); cb != cc {
		r.failf("determinism: candidates %d traced vs %d traced repeat", cb, cc)
	}
	invalid, firstInvalid := b.invalidTrees, b.firstInvalid
	if s.soak > 0 {
		soakReqs, err := inputs(s, o.seed, s.soak)
		if err != nil {
			return nil, err
		}
		p, err := runPass(s, soakReqs, o.fleetSeed, passOpts{check: true, drain: true})
		if err != nil {
			return nil, err
		}
		r.check("soak", p, s.soak)
		invalid += p.invalidTrees
		if firstInvalid == nil {
			firstInvalid = p.firstInvalid
		}
		r.notef("soak: %d requests closed loop, trees checked every %d", s.soak, checkEvery)
	}

	fn := float64(n)
	m := b.m
	or := b.oracle
	v := r.values
	v["ingest.admit_us"], v["ingest.residence_p50_ms"], v["ingest.residence_p90_ms"] = 0, 0, 0
	v["ingest.queue_peak"], v["ingest.gen_lag_p90_ms"] = 0, 0
	if b.ingress != nil {
		v["ingest.admit_us"] = us(meanDur(b.admit))
		v["ingest.residence_p50_ms"] = float64(b.ingress.IngressWait.Quantile(0.5)) / 1e6
		v["ingest.residence_p90_ms"] = float64(b.ingress.IngressWait.Quantile(tail)) / 1e6
		v["ingest.queue_peak"] = float64(b.ingress.IngressQueuePeak)
		v["ingest.gen_lag_p90_ms"] = ms(quantile(b.genLag, tail))
	}
	phase1 := b.stageNs("phase1")
	v["dispatch.match_self_us"] = float64(b.stageNs("match")-phase1) / fn / 1e3
	v["dispatch.phase1_ms"] = float64(phase1) / fn / 1e6
	v["dispatch.alloc_kb_per_req"] = float64(a.allocBytes) / 1024 / fn
	v["dispatch.allocs_per_req"] = float64(a.mallocs) / fn
	v["dispatch.gc_pause_ms"] = ms(a.gcPause)
	trial := trialTime(m)
	v["sim.move_ms_per_req"] = float64(phase1-trial.Nanoseconds()) / fn / 1e6
	v["sim.path_calls_per_req"] = float64(or.pathCalls) / fn
	v["spatial.candidates_per_req"] = float64(b.candidates()) / fn
	v["core.trials_per_req"] = float64(m.TrialCalls) / fn
	v["core.trial_feasible_frac"] = ratio(m.TrialCalls-m.TrialFailures, m.TrialCalls)
	v["core.trial_us"] = us(trial) / float64(max(m.TrialCalls, 1))
	v["core.art_us.k0"], v["core.art_us.k1"], v["core.art_us.k2"], v["core.art_us.k3plus"] = artUs(m)
	v["core.tree_nodes_max"] = float64(m.TreeNodesMax)
	v["core.over_budget"] = float64(m.OverBudget)
	v["core.invalid_tree_checks"] = float64(invalid)
	v["sp.dist_calls_per_req"] = float64(or.distCalls) / fn
	v["sp.dist_us"] = us(or.distMean())
	v["sp.path_us"] = us(or.pathMean())
	oracleNs := float64(or.distCalls)*float64(or.distMean()) + float64(or.pathCalls)*float64(or.pathMean())
	v["sp.oracle_wall_frac"] = oracleNs / float64(sumDur(b.submit))
	v["cache.dist_hit_rate"] = m.DistCacheHitRate()
	v["cache.miss_per_req"] = float64(m.DistCacheMisses) / fn
	v["cache.miss_us"] = float64(m.DistMissLatency.Mean()) / 1e3
	v["cache.hit_us"] = float64(m.DistHitLatency.Mean()) / 1e3
	v["obs.trace_overhead_pct"] = 100 * (float64(sumDur(c.submit))/float64(sumDur(a.submit)) - 1)
	v["obs.spans_dropped"] = float64(b.dropped + c.dropped)
	at := b.attribution
	v["obs.queue_wall_frac"] = float64(at.QueueNs) / float64(max(at.QueueNs+at.ComputeNs+at.OtherNs, 1))

	if firstInvalid != nil {
		r.notef("KNOWN DEFECT surfaced: %d tree checks failed; first: %v", invalid, firstInvalid)
	}
	if path := traceFile(o); path != "" {
		r.notef("traced pass spans: %s (go run ./cmd/tracetool report %s)", path, path)
	}
	return r, nil
}

// artUs returns the paper's ART (mean trial time) in microseconds for
// vehicles already holding 0, 1, 2, and 3 or more requests; 0 where no
// trial fell in the bucket.
func artUs(m *sim.Metrics) (k0, k1, k2, k3plus float64) {
	var out [4]float64
	var tot [4]time.Duration
	var cnt [4]int
	for _, k := range m.ARTBuckets() {
		d, c := m.ART(k)
		i := min(k, 3)
		tot[i] += d * time.Duration(c)
		cnt[i] += c
	}
	for i := range out {
		if cnt[i] > 0 {
			out[i] = us(tot[i] / time.Duration(cnt[i]))
		}
	}
	return out[0], out[1], out[2], out[3]
}

// warmup is the prefix of a stream left out of latency samples: the
// first requests meet a cold cache and an empty fleet.
func warmup(n int) int { return n / 10 }

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sumDur(ds) / time.Duration(len(ds))
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

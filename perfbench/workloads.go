package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Seeds. The workload seed drives the request stream and the fleet seed
// drives vehicle placement and idle cruising; both are flags. Gains are
// claimed on defaultSeed and confirmed on heldOutSeed, which no change
// may be tuned against.
const (
	worldSeed        = 5 // road network; fixed so every seed sees the same city
	defaultSeed      = 105
	heldOutSeed      = 31
	defaultFleetSeed = 9
)

// Demand is Poisson at demandRate requests per simulated second. On the
// 1,200-vehicle dense world that is about the paper's per-vehicle demand;
// on the 10,000-vehicle city it is an off-peak trough.
const demandRate = 0.5

// offeredRate is one fixed open-loop wall-clock rate of the paced workload.
type offeredRate struct {
	name   string
	perSec float64
}

// spec is one workload: a world, a fleet, and a request stream.
type spec struct {
	name     string
	scale    float64 // exp.BuildWorld scale: 0.008 = 955 vertices, 0.15 = 18,173
	fleet    int
	wait     float64 // waiting-time constraint, seconds
	requests int     // stream length of every measured pass
	// hotspots is the number of demand clusters the generator places at
	// seed-drawn positions; 0 keeps its default of 8.
	hotspots int
	// rates, when set, make the workload open loop: one producer submits
	// each request at its wall due time through ingest.Gateway, once per
	// rate. The last rate also paces the traced pass.
	rates []offeredRate
	// soak, when positive, extends the traced run with an untimed
	// closed-loop pass over a stream this long that checks the fleet's
	// kinetic trees every checkEvery requests. It exists because tree
	// invariant failures show only on long streams.
	soak int
}

var specs = []spec{
	// Every request trials every vehicle: oracle and TrialInsert dominate.
	{name: "dense", scale: 0.008, fleet: 1200, wait: 600, requests: 330},
	// An idle 10,000-vehicle fleet on a large graph: movement dominates
	// and graph/index build shows in setup_s. On this 19 km city, 8
	// clusters let the seed decide the demand geography, which moved
	// throughput by a quarter between seeds; 32 make the seed vary the
	// requests instead.
	{name: "city-offpeak", scale: 0.15, fleet: 10000, wait: 120, requests: 300, hotspots: 32},
	// Open loop through the ingress gateway at about 1/4 and 1/2 of this
	// fleet's closed-loop capacity (about 40 req/s).
	{name: "paced", scale: 0.008, fleet: 400, wait: 600, requests: 200,
		rates: []offeredRate{{"lo", 10}, {"hi", 20}}, soak: 1000},
}

// checkEvery is the request interval between tree invariant checkpoints.
const checkEvery = 50

func lookup(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// shrink returns a small variant of s for the self-test: same shape,
// a fraction of the size.
func (s spec) shrink() spec {
	s.requests = 40
	if s.fleet > 400 {
		s.fleet = 400
	}
	if s.scale > 0.02 {
		s.scale = 0.02
	}
	if s.rates != nil {
		s.rates = []offeredRate{{"lo", 100}, {"hi", 200}}
	}
	if s.soak > 0 {
		s.soak = 120
	}
	return s
}

// inputs generates the request stream for seed: n Poisson requests on the
// workload's world. The world built here only feeds the generator; its
// cost is not set-up time.
func inputs(s spec, seed int64, n int) ([]sim.Request, error) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: s.scale, Trips: 1, Seed: worldSeed})
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(world.Graph, workload.Options{Pattern: workload.Poisson, Rate: demandRate, Trips: n, Hotspots: s.hotspots, Seed: seed})
	if err != nil {
		return nil, err
	}
	reqs := gen.All()
	if err := gen.Err(); err != nil {
		return nil, err
	}
	if len(reqs) != n {
		return nil, fmt.Errorf("workload %s: generated %d requests, want %d", s.name, len(reqs), n)
	}
	return reqs, nil
}

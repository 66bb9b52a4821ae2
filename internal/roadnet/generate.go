package roadnet

import (
	"fmt"
	"math"
	"math/rand"
)

// GridOptions configures Grid.
type GridOptions struct {
	Rows, Cols int     // vertex grid dimensions
	Spacing    float64 // nominal block length in meters
	Jitter     float64 // max coordinate perturbation as a fraction of Spacing
	DropFrac   float64 // fraction of edges randomly removed (largest component kept)
	WeightVar  float64 // multiplicative weight noise, e.g. 0.1 for ±10%
	Seed       int64
}

// Grid generates a jittered Manhattan-style grid network. Edge weights are
// the Euclidean length between the (jittered) endpoints scaled by a random
// factor in [1, 1+WeightVar], so Euclidean distance stays a lower bound on
// network distance; sim.Worker.Trial's out-of-reach skip and the grid
// candidate radius both rely on that. If DropFrac > 0, that fraction of
// edges is removed and the largest connected component is returned, so the
// result may have slightly fewer than Rows*Cols vertices.
func Grid(opt GridOptions) (*Graph, error) {
	if opt.Rows < 2 || opt.Cols < 2 {
		return nil, fmt.Errorf("roadnet: grid needs at least 2x2 vertices, got %dx%d", opt.Rows, opt.Cols)
	}
	if opt.Spacing <= 0 {
		return nil, fmt.Errorf("roadnet: grid spacing must be positive, got %v", opt.Spacing)
	}
	if opt.DropFrac < 0 || opt.DropFrac >= 1 {
		return nil, fmt.Errorf("roadnet: drop fraction must be in [0,1), got %v", opt.DropFrac)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := opt.Rows * opt.Cols
	b := NewBuilder(n)
	id := func(r, c int) VertexID { return VertexID(r*opt.Cols + c) }
	for r := 0; r < opt.Rows; r++ {
		for c := 0; c < opt.Cols; c++ {
			jx := (rng.Float64()*2 - 1) * opt.Jitter * opt.Spacing
			jy := (rng.Float64()*2 - 1) * opt.Jitter * opt.Spacing
			b.SetCoord(id(r, c), float64(c)*opt.Spacing+jx, float64(r)*opt.Spacing+jy)
		}
	}
	addEdge := func(u, v VertexID) {
		if opt.DropFrac > 0 && rng.Float64() < opt.DropFrac {
			return
		}
		dx := b.xs[u] - b.xs[v]
		dy := b.ys[u] - b.ys[v]
		w := math.Hypot(dx, dy) * (1 + rng.Float64()*opt.WeightVar)
		b.AddEdge(u, v, w)
	}
	for r := 0; r < opt.Rows; r++ {
		for c := 0; c < opt.Cols; c++ {
			if c+1 < opt.Cols {
				addEdge(id(r, c), id(r, c+1))
			}
			if r+1 < opt.Rows {
				addEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if opt.DropFrac > 0 {
		g, _ = g.LargestComponent()
	}
	return g, nil
}

// RingRadialOptions configures RingRadial.
type RingRadialOptions struct {
	Rings     int     // number of concentric rings
	Spokes    int     // number of radial roads
	RingGap   float64 // distance between consecutive rings in meters
	WeightVar float64 // multiplicative weight noise
	Seed      int64
}

// RingRadial generates a ring-and-radial network resembling the elevated
// ring roads of cities like Shanghai: a central vertex, Rings concentric
// rings each crossed by Spokes radial roads, with ring segments connecting
// angular neighbors.
func RingRadial(opt RingRadialOptions) (*Graph, error) {
	if opt.Rings < 1 || opt.Spokes < 3 {
		return nil, fmt.Errorf("roadnet: ring-radial needs >=1 ring and >=3 spokes, got %d/%d", opt.Rings, opt.Spokes)
	}
	if opt.RingGap <= 0 {
		return nil, fmt.Errorf("roadnet: ring gap must be positive, got %v", opt.RingGap)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := 1 + opt.Rings*opt.Spokes
	b := NewBuilder(n)
	b.SetCoord(0, 0, 0)
	id := func(ring, spoke int) VertexID { return VertexID(1 + (ring-1)*opt.Spokes + spoke) }
	for ring := 1; ring <= opt.Rings; ring++ {
		radius := float64(ring) * opt.RingGap
		for s := 0; s < opt.Spokes; s++ {
			theta := 2 * math.Pi * float64(s) / float64(opt.Spokes)
			b.SetCoord(id(ring, s), radius*math.Cos(theta), radius*math.Sin(theta))
		}
	}
	weight := func(u, v VertexID) float64 {
		dx := b.xs[u] - b.xs[v]
		dy := b.ys[u] - b.ys[v]
		return math.Hypot(dx, dy) * (1 + rng.Float64()*opt.WeightVar)
	}
	for s := 0; s < opt.Spokes; s++ {
		b.AddEdge(0, id(1, s), weight(0, id(1, s)))
		for ring := 1; ring < opt.Rings; ring++ {
			b.AddEdge(id(ring, s), id(ring+1, s), weight(id(ring, s), id(ring+1, s)))
		}
	}
	for ring := 1; ring <= opt.Rings; ring++ {
		for s := 0; s < opt.Spokes; s++ {
			next := (s + 1) % opt.Spokes
			b.AddEdge(id(ring, s), id(ring, next), weight(id(ring, s), id(ring, next)))
		}
	}
	return b.Build()
}

// CityOptions configures SyntheticCity.
type CityOptions struct {
	// Scale sizes the network relative to the paper's Shanghai graph
	// (122,319 vertices, 188,426 edges). Scale 1.0 targets those counts;
	// Scale 0.01 produces a ~1,200-vertex network for tests.
	Scale float64
	Seed  int64
}

// ShanghaiVertices and ShanghaiEdges are the sizes of the road network used
// in the paper's evaluation (§VI).
const (
	ShanghaiVertices = 122319
	ShanghaiEdges    = 188426
)

// SyntheticCity generates the stand-in for the Shanghai road network: a
// jittered grid with ~3% of edges removed, sized so that at Scale 1.0 the
// vertex and edge counts approximate the paper's 122,319 / 188,426. The
// spacing is chosen so the city diameter is ~50 km at full scale, matching
// a 10-minute (8,400 m) waiting-time radius covering a realistic fraction
// of the city.
func SyntheticCity(opt CityOptions) (*Graph, error) {
	if opt.Scale <= 0 {
		return nil, fmt.Errorf("roadnet: city scale must be positive, got %v", opt.Scale)
	}
	target := float64(ShanghaiVertices) * opt.Scale
	side := int(math.Round(math.Sqrt(target)))
	if side < 2 {
		side = 2
	}
	// A side x side grid has 2*side*(side-1) edges ~ 2*V; dropping ~22%
	// of edges yields E/V ~ 1.54, matching Shanghai's 188,426/122,319.
	g, err := Grid(GridOptions{
		Rows:      side,
		Cols:      side,
		Spacing:   50000.0 / float64(int(math.Sqrt(float64(ShanghaiVertices)))),
		Jitter:    0.25,
		DropFrac:  0.22,
		WeightVar: 0.15,
		Seed:      opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Vehicle is one server: either a kinetic-tree vehicle (incremental state)
// or a stateless-scheduler vehicle that reschedules from scratch on every
// trial, exactly the distinction the paper draws between the tree algorithm
// and the brute-force/branch-and-bound/MIP baselines. Vehicles are moved and
// scheduled through a Worker; the type itself exposes only read accessors.
type Vehicle struct {
	id    int
	loc   roadnet.VertexID
	odo   float64 // meters traveled since simulation start
	clock float64 // simulation time (seconds) of the last advance

	// Tree algorithms.
	tree *core.Tree

	// Stateless algorithms.
	sched core.Scheduler
	trips []core.TripState
	done  []bool
	route []core.Stop // committed order, indices into trips

	// Current leg being driven (toward route/tree target or cruising).
	path    []roadnet.VertexID // path[0] == loc conceptually; consumed from front
	pathPos int

	peakOnboard int
	walk        uint64 // idle-walk stream state (splitmix64 counter)

	// bookkeeping for service accounting, keyed by trip ID
	requestOdo map[int64]float64 // odometer at request time
	pickupOdo  map[int64]float64 // odometer at pickup
}

// ID returns the vehicle's fleet-wide identifier.
func (v *Vehicle) ID() int { return v.id }

// Loc returns the vehicle's current vertex.
func (v *Vehicle) Loc() roadnet.VertexID { return v.loc }

// PeakOnboard returns the largest simultaneous passenger count observed.
func (v *Vehicle) PeakOnboard() int { return v.peakOnboard }

func (v *Vehicle) isTree() bool { return v.tree != nil }

// activeTrips returns the number of accepted, uncompleted trips.
func (v *Vehicle) activeTrips() int {
	if v.isTree() {
		return v.tree.ActiveTrips()
	}
	n := 0
	for i := range v.trips {
		if !v.done[i] {
			n++
		}
	}
	return n
}

func (v *Vehicle) onboard() int {
	if v.isTree() {
		return v.tree.OnBoard()
	}
	n := 0
	for i := range v.trips {
		if !v.done[i] && v.trips[i].OnBoard {
			n++
		}
	}
	return n
}

// Busy reports whether the vehicle has committed stops to serve.
func (v *Vehicle) Busy() bool {
	if v.isTree() {
		return !v.tree.Empty()
	}
	return len(v.route) > 0
}

// nextTarget returns the vertex of the next committed stop.
func (v *Vehicle) nextTarget() (roadnet.VertexID, bool) {
	if v.isTree() {
		stops := v.tree.NextStops()
		if len(stops) == 0 {
			return 0, false
		}
		return stops[0].Vertex, true
	}
	if len(v.route) == 0 {
		return 0, false
	}
	return v.route[0].Vertex, true
}

// AdvanceTo moves the vehicle forward to simulation time t, following its
// committed schedule when busy and cruising randomly when idle ("a vehicle
// ... follows a given route when there are customer(s) on board or,
// otherwise, follows the current road segment; at intersections, the next
// segment to follow is chosen randomly", §VI).
func (w *Worker) AdvanceTo(v *Vehicle, t float64) {
	if t < v.clock {
		return
	}
	budget := (t - v.clock) * roadnet.Speed // meters available
	v.clock = t
	for budget > 1e-9 {
		if v.Busy() {
			target, _ := v.nextTarget()
			if target == v.loc {
				budget = w.serveStop(v, budget)
				continue
			}
			if !w.stepToward(v, target, &budget) {
				return // unreachable target: freeze (cannot happen on connected graphs)
			}
		} else {
			w.cruise(v, &budget)
		}
	}
}

// stepToward advances along the shortest path to target, consuming budget.
// Returns false if no path exists.
func (w *Worker) stepToward(v *Vehicle, target roadnet.VertexID, budget *float64) bool {
	if v.pathPos >= len(v.path) || v.path[len(v.path)-1] != target || v.path[v.pathPos] != v.loc {
		v.path = w.oracle.Path(v.loc, target)
		v.pathPos = 0
		if len(v.path) == 0 {
			return false
		}
	}
	for v.pathPos+1 < len(v.path) && *budget > 1e-9 {
		next := v.path[v.pathPos+1]
		ew, ok := w.graph.EdgeWeight(v.loc, next)
		if !ok {
			// Path vertices are always adjacent; defensive only.
			ew = w.oracle.Dist(v.loc, next)
		}
		if ew > *budget {
			// Cannot complete the edge this step; hold position at the
			// current vertex (vertex-granular motion).
			*budget = 0
			return true
		}
		*budget -= ew
		v.odo += ew
		v.loc = next
		v.pathPos++
		w.metrics.TotalVehicleMeters += ew
		if v.isTree() {
			v.tree.SetLocation(v.loc, v.odo)
		}
	}
	return true
}

// cruise moves the idle vehicle along random road segments.
func (w *Worker) cruise(v *Vehicle, budget *float64) {
	ts, ws := w.graph.Neighbors(v.loc)
	if len(ts) == 0 {
		*budget = 0
		return
	}
	i := v.walkIntn(len(ts))
	if ws[i] > *budget {
		*budget = 0 // vertex-granular: stay until enough budget accrues
		return
	}
	*budget -= ws[i]
	v.odo += ws[i]
	v.loc = ts[i]
	w.metrics.TotalVehicleMeters += ws[i]
	if v.isTree() {
		// Keep the (empty) tree's root in sync while cruising: the next
		// trial insertion computes every leg from the tree's location.
		v.tree.SetLocation(v.loc, v.odo)
	}
}

// walkIntn draws the next idle-walk choice, uniform in [0, n): one step of
// the vehicle's splitmix64 stream, scaled by multiply-shift. Eight bytes
// of state per vehicle, seeded in O(1), where a math/rand source would
// cost 4.9 KB and a 607-word seeding each.
func (v *Vehicle) walkIntn(n int) int {
	v.walk += 0x9e3779b97f4a7c15
	x := v.walk
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int((x >> 32) * uint64(n) >> 32)
}

// serveStop handles arrival at the next scheduled stop and returns the
// remaining budget (intra-hotspot travel is consumed from it).
func (w *Worker) serveStop(v *Vehicle, budget float64) float64 {
	if v.isTree() {
		v.tree.SetLocation(v.loc, v.odo)
		pre := v.tree.Odo()
		served, err := v.tree.Advance()
		if err != nil {
			panic(fmt.Sprintf("sim: vehicle %d: %v", v.id, err))
		}
		delta := v.tree.Odo() - pre // intra-hotspot distance
		budget -= delta
		v.odo = v.tree.Odo()
		v.loc = v.tree.Loc()
		w.metrics.TotalVehicleMeters += delta
		for _, sv := range served {
			w.accountStop(v, sv.Stop.Kind, sv.Trip, sv.Odo)
		}
		return budget
	}
	// Stateless vehicle: serve every consecutive leading stop at this
	// vertex.
	for len(v.route) > 0 && v.route[0].Vertex == v.loc {
		stop := v.route[0]
		v.route = v.route[1:]
		tr := &v.trips[stop.Trip]
		switch stop.Kind {
		case core.Pickup:
			tr.MarkPickedUp(v.odo)
		case core.Dropoff:
			v.done[stop.Trip] = true
		}
		w.accountStop(v, stop.Kind, *tr, v.odo)
	}
	if len(v.route) == 0 {
		v.trips = v.trips[:0]
		v.done = v.done[:0]
	}
	return budget
}

// accountStop updates service metrics when a stop is served at odometer at.
func (w *Worker) accountStop(v *Vehicle, kind core.StopKind, tr core.TripState, at float64) {
	switch kind {
	case core.Pickup:
		if ob := v.onboard(); ob > v.peakOnboard {
			v.peakOnboard = ob
		}
		v.pickupOdo[tr.ID] = at
		if reqOdo, ok := v.requestOdo[tr.ID]; ok {
			w.metrics.TotalWaitMeters += at - reqOdo
		}
		// The trip state carries its own (possibly individualized)
		// waiting deadline.
		if at > tr.WaitDeadline+1 {
			w.metrics.Violations++
		}
	case core.Dropoff:
		w.metrics.Completed++
		w.live.AddCompleted(1)
		w.ring.Emit(obs.KindCompleted, tr.ID, v.clock, int64(v.id))
		if pOdo, ok := v.pickupOdo[tr.ID]; ok {
			ride := at - pOdo
			w.metrics.TotalRideMeters += ride
			w.metrics.TotalShortestLen += tr.ShortestLen
			if ride > tr.MaxRide+1 {
				w.metrics.Violations++
			}
			delete(v.pickupOdo, tr.ID)
		}
		delete(v.requestOdo, tr.ID)
	}
}

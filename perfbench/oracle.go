package main

import (
	"time"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// distSampleEvery: a timed pass times one Dist call in this many, so the
// two clock reads stay small next to a cache hit. Which calls are timed
// depends only on call order.
const distSampleEvery = 16

// probeOracle counts the shortest-path queries the engine makes and, in a
// timed pass, how long they take. It wraps whatever exp.World.NewOracle
// returns and keeps Unwrap, so the engine still finds the cache stack
// underneath for its hit/miss counters. Single goroutine, like the
// oracle it wraps.
type probeOracle struct {
	inner sp.Oracle
	timed bool

	distCalls, pathCalls uint64
	distTimed            uint64
	distNs, pathNs       time.Duration
}

func (o *probeOracle) Dist(u, v roadnet.VertexID) float64 {
	o.distCalls++
	if !o.timed || o.distCalls%distSampleEvery != 0 {
		return o.inner.Dist(u, v)
	}
	start := time.Now()
	d := o.inner.Dist(u, v)
	o.distNs += time.Since(start)
	o.distTimed++
	return d
}

func (o *probeOracle) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	o.pathCalls++
	if !o.timed {
		return o.inner.Path(u, v)
	}
	start := time.Now()
	p := o.inner.Path(u, v)
	o.pathNs += time.Since(start)
	return p
}

func (o *probeOracle) Unwrap() sp.Oracle { return o.inner }

// distMean and pathMean are the mean timed call durations.
func (o *probeOracle) distMean() time.Duration { return mean(o.distNs, o.distTimed) }
func (o *probeOracle) pathMean() time.Duration { return mean(o.pathNs, o.pathCalls) }

func mean(total time.Duration, n uint64) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

package main

import (
	"math"
	"math/big"
	"math/rand"
)

// The host-speed probe. On the 2-CPU VM this benchmark was tuned on, the
// throughput of multiply-heavy code moves between levels up to 2× apart,
// each lasting from seconds to tens of seconds (README.md). Raw medians of
// 30-s windows of one process then spread by 0.3 or more. So the end-to-end
// times are rescaled by a probe timed right before and right after each
// measured interval: a fixed math/big computation that shares no code with
// this repository. In the same windows the rescaled medians spread by 0.03.
// The probe is timed in process CPU time, like the operations it rescales.
// Raw times are printed next to the rescaled ones.

// probeNominalMS is the probe's usual time on the reference host (the 2-CPU
// Xeon VM). A time measured while the probe reads probeNominalMS is reported
// unchanged.
const probeNominalMS = 0.45

var (
	probeX, probeY = probeOperands()
	probeZ         big.Int
)

func probeOperands() (*big.Int, *big.Int) {
	rng := rand.New(rand.NewSource(1))
	return randSigned(rng, 1<<16), randSigned(rng, 1<<16)
}

// probe returns, in ms of process CPU time, the fastest of three timings of
// two 2^16-bit math/big products. The minimum drops timings that a GC cycle
// or an interrupt landed in. Not safe for concurrent use.
func probe() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t := cpuTime()
		probeZ.Mul(probeX, probeY)
		probeZ.Mul(probeX, probeY)
		best = math.Min(best, float64((cpuTime()-t).Nanoseconds())/1e6)
	}
	return best
}

// hostScale rescales a time measured between probes reading before and after
// to the reference host at full speed.
func hostScale(before, after float64) float64 { return probeNominalMS / ((before + after) / 2) }

package main

import (
	"math"

	"spio"
)

type opKind uint8

const (
	kindBox opKind = iota
	kindKNN
	kindHalo
	kindDensity
	kindStream
	numKinds
)

var kindNames = [numKinds]string{"box", "knn", "halo", "density", "stream"}

// Op parameters of schedule S.
const (
	boxSideMin = 0.12
	boxSideMax = 0.30
	knnK       = 16
	haloWidth  = 0.02
	densityDim = 16
	lodLevels  = 4
	streamSide = 0.30
	lodReaders = 256 // n of the LOD formula: 512 particles per file in level 0
	cycleLen   = 20
	sampleOps  = 3 * cycleLen // prefix of S replayed layer by layer in the traced run
)

// cycle is the op mix, 70 % box, 10 % KNN, 10 % halo, 5 % density and
// 5 % progressive stream, spread evenly so that every prefix of S that
// is a multiple of 20 ops holds exactly that mix.
var cycle = [cycleLen]opKind{
	kindBox, kindBox, kindKNN, kindBox, kindBox, kindHalo, kindBox, kindBox, kindBox, kindDensity,
	kindBox, kindBox, kindKNN, kindBox, kindBox, kindHalo, kindBox, kindBox, kindBox, kindStream,
}

// op is one request of the schedule with the answer the oracle expects.
type op struct {
	kind opKind
	box  spio.Box  // query box (box, stream) or simulation patch (halo)
	at   spio.Vec3 // KNN query point
	want summary   // set by oracle.expect
}

// buildSchedule makes the first n ops of S for a seed. The geometry of
// the box, halo and stream ops is the same for every seed: boxes follow
// a low-discrepancy sequence, so that any prefix covers positions and
// sizes evenly, and halos walk the patches in a fixed order. How much
// work an op is depends on which of the 16 files it touches, so fixed
// geometry is what makes a pass the same work under every seed. The
// seed decides what the ops find there: every particle of d comes from
// it, and each KNN query is asked at the particle nearest a fixed point.
func buildSchedule(n int, d *dataset) []op {
	// Additive recurrence on the generalised golden ratio for four
	// dimensions (root of x^5 = x + 1).
	const phi4 = 1.1673039782614187
	var alpha [4]float64
	for k := range alpha {
		alpha[k] = 1 / math.Pow(phi4, float64(k+1))
	}
	point := func(i int) (u [4]float64) {
		for k := range u {
			_, u[k] = math.Modf(0.5 + float64(i)*alpha[k])
		}
		return u
	}
	ops := make([]op, n)
	boxes, knns, halos, streams := 0, 0, 0, 0
	for i := range ops {
		o := &ops[i]
		o.kind = cycle[i%cycleLen]
		switch o.kind {
		case kindBox:
			boxes++
			u := point(boxes)
			side := boxSideMin * math.Pow(boxSideMax/boxSideMin, u[3])
			lo := spio.V3(u[0], u[1], u[2]).Mul(1 - side)
			o.box = spio.NewBox(lo, lo.Add(spio.V3(side, side, side)))
		case kindKNN:
			knns++
			u := point(2000 + knns)
			o.at = d.nearest(spio.V3(u[0], u[1], u[2]))
		case kindHalo:
			// 13 is coprime to 32: the walk visits every patch, and
			// neighbours in the walk are far apart in the domain.
			o.box = d.grid.CellBox(spio.Unlinear(halos*13%nRanks, simDims))
			halos++
		case kindStream:
			streams++
			u := point(1000 + streams)
			lo := spio.V3(u[0], u[1], u[2]).Mul(1 - streamSide)
			o.box = spio.NewBox(lo, lo.Add(spio.V3(streamSide, streamSide, streamSide)))
		}
	}
	return ops
}

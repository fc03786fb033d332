package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (NaN for an empty sample). v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// columnMins returns, for rows of equal length, the smallest value of
// each column.
func columnMins(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	mins := append([]float64(nil), rows[0]...)
	for _, row := range rows[1:] {
		for i, x := range row {
			mins[i] = math.Min(mins[i], x)
		}
	}
	return mins
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// ratio is a/b, and 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procMark is a reading of the process-wide counters.
type procMark struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func markProc() procMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procMark{cpu: cpuTime(), alloc: m.TotalAlloc, gcs: m.NumGC}
}

// speedRef is the machine-speed reference stamped on every result: MB/s
// of two goroutines each copying a 32 MiB buffer once. It is metadata
// that makes a slow-host run recognisable, not a metric, and no metric
// is normalised by it.
type speedRef struct {
	src, dst [2][]byte
	mbps     []float64
}

func newSpeedRef() *speedRef {
	s := &speedRef{}
	for i := range s.src {
		s.src[i] = make([]byte, 32<<20)
		s.dst[i] = make([]byte, 32<<20)
		for j := range s.src[i] {
			s.src[i][j] = byte(j)
		}
	}
	return s
}

func (s *speedRef) sample() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range s.src {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			copy(s.dst[i], s.src[i])
		}(i)
	}
	wg.Wait()
	s.mbps = append(s.mbps, 64*1.048576/time.Since(t0).Seconds())
}

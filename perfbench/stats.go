package main

import (
	"math"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// micros converts nanosecond samples to microseconds.
func micros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// medianOf runs fn rc.setups times, and more while the runs add up to
// less than rc.floor (at most 3*rc.setups runs in all). It returns the
// median of their durations in seconds, stopping at the first error, and
// records the number of runs in rc.setupsN.
func medianOf(rc *runCtx, fn func() (time.Duration, error)) (float64, error) {
	var ds []float64
	var total time.Duration
	for len(ds) < rc.setups || total < rc.floor && len(ds) < 3*rc.setups {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
		total += d
	}
	rc.setupsN = len(ds)
	return median(ds), nil
}

// windowSlices is how many slices a timed window's rate is the median of.
const windowSlices = 10

// sliceRate splits a window of length dur into n equal slices, counts the
// completion times (ns from the window's start) that fall in each, and
// returns the median per-second rate over the slices. A transient stall
// then moves one slice, not the result.
func sliceRate(ends []int64, dur time.Duration, n int) float64 {
	width := int64(dur) / int64(n)
	if width <= 0 {
		return 0
	}
	counts := make([]float64, n)
	for _, e := range ends {
		if k := e / width; k >= 0 && k < int64(n) {
			counts[k]++
		}
	}
	for i := range counts {
		counts[i] /= time.Duration(width).Seconds()
	}
	return median(counts)
}

// cpuTime returns the CPU time, user plus system over all threads, the
// process has used so far. Time the host gives to other guests (steal)
// and time spent waiting for a core are not in it, so a CPU cost per
// operation stays put when the host is busy and wall-clock rates do not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSlices is how many slices a timed window's CPU cost per operation is
// the median over.
const cpuSlices = 40

// cpuSampler reads the process CPU time and an operation count at the end
// of every slice of a window. The median CPU cost per operation over the
// slices leaves out the few slices that a garbage collection cycle (the
// WAL keeps every record, so a window holds one or two large ones) or a
// burst of other load on the host falls in.
type cpuSampler struct {
	ops     atomic.Int64 // operations acknowledged so far; the workload adds to it
	stop    chan struct{}
	done    chan struct{}
	perOpMS []float64
}

func startCPUSampler(period time.Duration) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		cpu0, ops0 := cpuTime(), s.ops.Load()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				cpu, ops := cpuTime(), s.ops.Load()
				if ops > ops0 {
					s.perOpMS = append(s.perOpMS, (cpu-cpu0).Seconds()*1e3/float64(ops-ops0))
				}
				cpu0, ops0 = cpu, ops
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median CPU milliseconds per
// operation over the whole slices of the window (NaN when there were none).
func (s *cpuSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.perOpMS)
}

// perK returns n per thousand of base (0 when base is 0).
func perK(n, base int64) float64 { return 1000 * ratio(n, base) }

// ratio returns n/base (0 when base is 0).
func ratio(n, base int64) float64 {
	if base == 0 {
		return 0
	}
	return float64(n) / float64(base)
}

package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest value
// with at least a q share of the samples at or below it. It returns 0 for
// no samples, so an absent layer reads as 0 rather than NaN in the JSON.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// mean is the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mexp expresses a duration in calibration ops, given the median duration
// of one calibration op measured in the same interval.
func mexp(d time.Duration, calib float64) float64 { return ratio(float64(d), calib) }

// us and ms convert a duration to float microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// The Go runtime counters a window records.
const (
	rtAllocObjs = "/gc/heap/allocs:objects"
	rtAllocByte = "/gc/heap/allocs:bytes"
	rtGCCycles  = "/gc/cycles/total:gc-cycles"
	rtGCPauses  = "/sched/pauses/total/gc:seconds"
)

// rtSnap is one reading of the runtime counters.
type rtSnap struct {
	allocs, allocBytes, gcCycles uint64
	pauses                       *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rtAllocObjs}, {Name: rtAllocByte}, {Name: rtGCCycles}, {Name: rtGCPauses}}
	metrics.Read(s)
	var r rtSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[3].Value.Float64Histogram()
	}
	return r
}

// pauseQuantileUS is the q-quantile, in microseconds, of the GC pauses
// recorded between two readings of the runtime's pause histogram. A
// bucket is represented by its upper bound (its lower bound for the
// unbounded top bucket); 0 when no pause happened.
func pauseQuantileUS(before, after *metrics.Float64Histogram, q float64) float64 {
	if after == nil {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= need {
			v := after.Buckets[i+1]
			if math.IsInf(v, 1) {
				v = after.Buckets[i]
			}
			return v * 1e6
		}
	}
	return 0
}

package main

import (
	"bytes"
	"math"
	"runtime/metrics"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.90, 50}, {1, 50},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	// Ten samples: p90 is the 9th smallest, leaving one sample beyond it.
	var ten []float64
	for i := 10; i >= 1; i-- {
		ten = append(ten, float64(i))
	}
	if got := quantile(ten, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := quantile(ten, 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if ten[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestNormalisation(t *testing.T) {
	// An op of 30 ms in an interval whose calibration op takes 600 µs is 50
	// mexp.
	if got := mexp(30*time.Millisecond, float64(600*time.Microsecond)); got != 50 {
		t.Errorf("mexp = %v, want 50", got)
	}
	if got := mexp(time.Second, 0); got != 0 {
		t.Errorf("mexp with no calibration = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}

	// Interval i is bracketed by blocks i and i+1; its calibration value
	// is the mean over calibWindow blocks either side, clipped at the ends.
	var blocks [][]float64
	for i := 0; i < 20; i++ {
		blocks = append(blocks, []float64{float64(i), float64(i)})
	}
	if got, want := calibAround(blocks, 0), mean([]float64{0, 1, 2, 3, 4, 5}); got != want {
		t.Errorf("calibAround(0) = %v, want %v", got, want)
	}
	if got, want := calibAround(blocks, 10), mean([]float64{6, 7, 8, 9, 10, 11, 12, 13, 14, 15}); got != want {
		t.Errorf("calibAround(10) = %v, want %v", got, want)
	}
	if got, want := calibAround(blocks, 18), mean([]float64{14, 15, 16, 17, 18, 19}); got != want {
		t.Errorf("calibAround(18) = %v, want %v", got, want)
	}
}

func TestPauseQuantile(t *testing.T) {
	before := &metrics.Float64Histogram{Counts: []uint64{5, 0, 0}, Buckets: []float64{0, 1e-6, 1e-5, math.Inf(1)}}
	after := &metrics.Float64Histogram{Counts: []uint64{5, 98, 2}, Buckets: before.Buckets}
	// 100 pauses between the readings: 98 up to 10 µs and 2 beyond it.
	if got := pauseQuantileUS(before, after, 0.98); math.Abs(got-10) > 1e-9 {
		t.Errorf("p98 = %v µs, want 10", got)
	}
	if got := pauseQuantileUS(before, after, 0.99); math.Abs(got-10) > 1e-9 {
		t.Errorf("p99 in the unbounded bucket = %v µs, want its lower bound 10", got)
	}
	if got := pauseQuantileUS(after, after, 0.99); got != 0 {
		t.Errorf("p99 without pauses = %v, want 0", got)
	}
}

func TestCalibrationOperands(t *testing.T) {
	if calibMod.BitLen() != 1024 || calibMod.Bit(0) != 1 {
		t.Errorf("modulus must be odd and 1024 bits, got %d bits", calibMod.BitLen())
	}
	if calibExp.BitLen() != 1024 || calibBase.Cmp(calibMod) >= 0 {
		t.Error("exponent must be 1024 bits and the base reduced")
	}
	if got := calibrate(); len(got) != calibBlock {
		t.Errorf("a calibration block timed %d ops, want %d", len(got), calibBlock)
	}
}

func TestDRBGDeterministic(t *testing.T) {
	read := func(seed int64, label string) []byte {
		d := newDRBG(seed, label)
		out := make([]byte, 50)
		// Uneven reads must give the same stream as one large read.
		if _, err := d.Read(out[:7]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Read(out[7:]); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := read(1, "x"), read(1, "x")
	if !bytes.Equal(a, b) {
		t.Error("same seed and label gave different streams")
	}
	if bytes.Equal(a, read(2, "x")) || bytes.Equal(a, read(1, "y")) {
		t.Error("different seed or label gave the same stream")
	}
	whole := make([]byte, 50)
	if _, err := newDRBG(1, "x").Read(whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, whole) {
		t.Error("split reads differ from one read")
	}
}

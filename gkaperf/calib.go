package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// The calibration op is one math/big Exp of a fixed 1024-bit base and
// exponent modulo a fixed odd 1024-bit modulus: the paper's own cost unit,
// a modular exponentiation. It lives here, outside the measured program,
// so no change to the program can alter it. Every timing the benchmark
// reports as "mexp" is divided by the median duration of this op measured
// in the same interval, which cancels most of the speed changes a shared
// machine imposes on a run.
var calibBase, calibExp, calibMod = calibOperands()

// calibBlock is how many calibration ops one calibration pause times.
const calibBlock = 8

func calibOperands() (base, exp, mod *big.Int) {
	mod = fixedInt("gkaperf/calibration/modulus")
	mod.SetBit(mod, 0, 1)
	exp = fixedInt("gkaperf/calibration/exponent")
	base = fixedInt("gkaperf/calibration/base")
	base.Mod(base, mod)
	return base, exp, mod
}

// fixedInt expands a label into a 1024-bit integer with its top bit set.
func fixedInt(label string) *big.Int {
	var b []byte
	for i := 0; len(b) < 128; i++ {
		s := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", label, i)))
		b = append(b, s[:]...)
	}
	x := new(big.Int).SetBytes(b[:128])
	return x.SetBit(x, 1023, 1)
}

// calibRef is the nominal duration of one calibration op. setup_s is
// reported in seconds at this speed: set-up time measured in calibration
// ops, times calibRef.
const calibRef = time.Millisecond

// calibrate times one block of calibration ops and returns each duration
// in nanoseconds.
func calibrate() []float64 {
	var z big.Int
	block := make([]float64, calibBlock)
	for i := range block {
		t := time.Now()
		z.Exp(calibBase, calibExp, calibMod)
		block[i] = float64(time.Since(t))
	}
	return block
}

// drbg is a deterministic randomness source for members: SHA-256 over a
// key derived from the run seed and the member's identity, and a block
// counter. The same seed gives every member the same stream, so a run's
// protocol inputs (nonces, commitments) are reproducible.
type drbg struct {
	mu  sync.Mutex
	key [32]byte
	ctr uint64
	buf []byte
}

func newDRBG(seed int64, label string) *drbg {
	return &drbg{key: sha256.Sum256([]byte(fmt.Sprintf("gkaperf/%d/%s", seed, label)))}
}

func (d *drbg) Read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for n := 0; n < len(p); {
		if len(d.buf) == 0 {
			var blk [40]byte
			copy(blk[:], d.key[:])
			binary.BigEndian.PutUint64(blk[32:], d.ctr)
			d.ctr++
			sum := sha256.Sum256(blk[:])
			d.buf = sum[:]
		}
		c := copy(p[n:], d.buf)
		d.buf = d.buf[c:]
		n += c
	}
	return len(p), nil
}

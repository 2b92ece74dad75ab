package mathx

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

// SchnorrGroup describes a prime-order-q subgroup of Z_p^*, the setting of
// the Burmester-Desmedt protocol and DSA: q | p-1 and g generates the
// subgroup of order q.
type SchnorrGroup struct {
	P *big.Int // field prime (paper: 1024-bit)
	Q *big.Int // subgroup order (paper: 160-bit)
	G *big.Int // generator of the order-q subgroup

	// fixedBase caches the fixed-base comb table for G, attached by
	// Precompute. Groups are shared by pointer across every member of a
	// deployment, so the table is published atomically; a nil table
	// selects the naive path.
	fixedBase atomic.Pointer[FixedBaseTable]

	// mont caches the Montgomery context for p (built lazily by Mont).
	mont atomic.Pointer[Modulus]
}

// Mont returns the group's cached Montgomery context for the field prime
// p, building it on first use. Groups are shared by pointer across every
// member of a deployment, so the one-off construction (a single big.Int
// division) is amortised process-wide. Never nil for a valid group.
func (sg *SchnorrGroup) Mont() *Modulus {
	if mo := sg.mont.Load(); mo != nil {
		return mo
	}
	mo, err := NewModulus(sg.P)
	if err != nil {
		return nil
	}
	sg.mont.CompareAndSwap(nil, mo)
	return sg.mont.Load()
}

// GenerateSchnorrGroup produces a fresh Schnorr group with the requested
// sizes: a qBits-bit prime q and a pBits-bit prime p = k*q + 1, plus a
// generator g of the order-q subgroup.
func GenerateSchnorrGroup(r io.Reader, pBits, qBits int) (*SchnorrGroup, error) {
	if qBits >= pBits {
		return nil, errors.New("mathx: Schnorr group needs qBits < pBits")
	}
	q, err := RandPrime(r, qBits)
	if err != nil {
		return nil, err
	}
	// Search p = k*q + 1 with the right bit length.
	kBits := pBits - qBits
	p := new(big.Int)
	k := new(big.Int)
	for attempt := 0; ; attempt++ {
		if attempt > 64*pBits {
			return nil, errors.New("mathx: Schnorr prime search exhausted")
		}
		kr, err := RandInt(r, new(big.Int).Lsh(One, uint(kBits)))
		if err != nil {
			return nil, err
		}
		// Force the top bit so p has exactly pBits bits, and make k even so
		// p = k*q+1 is odd.
		kr.SetBit(kr, kBits-1, 1)
		kr.SetBit(kr, 0, 0)
		p.Mul(kr, q)
		p.Add(p, One)
		if p.BitLen() != pBits {
			continue
		}
		if IsProbablePrime(p) {
			k.Set(kr)
			break
		}
	}
	g, err := subgroupGenerator(r, p, q, k)
	if err != nil {
		return nil, err
	}
	return &SchnorrGroup{P: p, Q: q, G: g}, nil
}

// subgroupGenerator finds g = h^k mod p with order exactly q, where
// p = k*q + 1.
func subgroupGenerator(r io.Reader, p, q, k *big.Int) (*big.Int, error) {
	for i := 0; i < 1000; i++ {
		h, err := RandScalar(r, p)
		if err != nil {
			return nil, err
		}
		g := new(big.Int).Exp(h, k, p)
		if g.Cmp(One) != 0 {
			return g, nil
		}
	}
	return nil, errors.New("mathx: failed to find subgroup generator")
}

// Validate performs structural checks: primality of p and q, the divisor
// relation q | p-1, and that g has order q.
func (sg *SchnorrGroup) Validate() error {
	if sg == nil || sg.P == nil || sg.Q == nil || sg.G == nil {
		return errors.New("mathx: incomplete Schnorr group")
	}
	if !IsProbablePrime(sg.P) {
		return errors.New("mathx: Schnorr p is not prime")
	}
	if !IsProbablePrime(sg.Q) {
		return errors.New("mathx: Schnorr q is not prime")
	}
	pm1 := new(big.Int).Sub(sg.P, One)
	if new(big.Int).Mod(pm1, sg.Q).Sign() != 0 {
		return errors.New("mathx: q does not divide p-1")
	}
	if sg.G.Cmp(Two) < 0 || sg.G.Cmp(pm1) >= 0 {
		return errors.New("mathx: generator out of range")
	}
	if new(big.Int).Exp(sg.G, sg.Q, sg.P).Cmp(One) != 0 {
		return errors.New("mathx: generator order is not q")
	}
	return nil
}

// Precompute attaches a fixed-base comb table for the generator, turning
// subsequent Exp calls into a table walk (9 squarings and at most 20
// products at |q| = 160) instead of a full square-and-multiply.
// Idempotent and safe to call concurrently; returns the attached table
// (nil only when the group is structurally unusable). The accelerated
// Exp returns bit-identical values, so transcripts and operation
// accounting are unaffected.
func (sg *SchnorrGroup) Precompute() *FixedBaseTable {
	if sg == nil || sg.P == nil || sg.Q == nil || sg.G == nil {
		return nil
	}
	if t := sg.fixedBase.Load(); t != nil {
		return t
	}
	t, err := NewFixedBaseTable(sg.G, sg.Mont(), sg.Q.BitLen())
	if err != nil {
		return nil
	}
	sg.fixedBase.CompareAndSwap(nil, t)
	return sg.fixedBase.Load()
}

// FixedBase returns the precomputation table attached by Precompute, or
// nil when the group runs the naive path.
func (sg *SchnorrGroup) FixedBase() *FixedBaseTable { return sg.fixedBase.Load() }

// Exp computes g^x mod p for the group generator, through the fixed-base
// table when one has been precomputed.
func (sg *SchnorrGroup) Exp(x *big.Int) *big.Int {
	if t := sg.fixedBase.Load(); t != nil {
		return t.Exp(x)
	}
	return new(big.Int).Exp(sg.G, x, sg.P)
}

// InSubgroup reports whether v is a member of the order-q subgroup
// (excluding 0; the identity 1 is a member).
func (sg *SchnorrGroup) InSubgroup(v *big.Int) bool {
	if v.Sign() <= 0 || v.Cmp(sg.P) >= 0 {
		return false
	}
	return new(big.Int).Exp(v, sg.Q, sg.P).Cmp(One) == 0
}

// RSAParams is the PKG-side description of the GQ modulus: n = p*q with the
// signing/verification exponent pair d, e satisfying e*d ≡ 1 (mod λ(n)).
//
// The paper's Setup says "gcd(e,d) = 1", which is a typo for the standard
// GQ/RSA relation; we implement e·d ≡ 1 (mod λ(n)) (see
// docs/ARCHITECTURE.md#deviations).
type RSAParams struct {
	N *big.Int // public modulus
	E *big.Int // public verification exponent
	//gkalint:secret
	P *big.Int // secret prime factor
	//gkalint:secret
	Q *big.Int // secret prime factor
	//gkalint:secret
	D *big.Int // secret extraction exponent

	// mont caches the Montgomery context for N (built lazily by Mont).
	mont atomic.Pointer[Modulus]
}

// Mont returns the cached Montgomery context for the modulus N, building
// it on first use. Parameter sets are shared by pointer, so the context
// is built once per process. Never nil for a valid parameter set.
func (rp *RSAParams) Mont() *Modulus {
	if mo := rp.mont.Load(); mo != nil {
		return mo
	}
	mo, err := NewModulus(rp.N)
	if err != nil {
		return nil
	}
	rp.mont.CompareAndSwap(nil, mo)
	return rp.mont.Load()
}

// GenerateRSAParams produces a GQ modulus of the requested size. e is fixed
// to 65537 unless that happens to divide λ(n), in which case the primes are
// re-drawn (vanishingly rare).
func GenerateRSAParams(r io.Reader, bits int) (*RSAParams, error) {
	if bits < 32 {
		return nil, errors.New("mathx: RSA modulus too small")
	}
	e := big.NewInt(65537)
	for attempt := 0; attempt < 64; attempt++ {
		p, err := RandPrime(r, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := RandPrime(r, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, One)
		qm1 := new(big.Int).Sub(q, One)
		lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), new(big.Int).GCD(nil, nil, pm1, qm1))
		d := new(big.Int).ModInverse(e, lambda)
		if d == nil {
			continue
		}
		return &RSAParams{N: n, E: new(big.Int).Set(e), P: p, Q: q, D: d}, nil
	}
	return nil, errors.New("mathx: RSA parameter generation exhausted retries")
}

// Validate checks the public/secret consistency of the parameter set.
func (rp *RSAParams) Validate() error {
	if rp == nil || rp.N == nil || rp.E == nil {
		return errors.New("mathx: incomplete RSA params")
	}
	if rp.P != nil && rp.Q != nil {
		//gkalint:vartime offline parameter validation at setup, not a per-session signing path
		if new(big.Int).Mul(rp.P, rp.Q).Cmp(rp.N) != 0 {
			return errors.New("mathx: N != P*Q")
		}
		//gkalint:vartime Miller-Rabin on the factors is inherently variable-time; setup only
		if !IsProbablePrime(rp.P) || !IsProbablePrime(rp.Q) {
			return errors.New("mathx: RSA factor not prime")
		}
	}
	if rp.D != nil && rp.P != nil && rp.Q != nil {
		probe := big.NewInt(0xabcdef)
		sig := new(big.Int).Exp(probe, rp.D, rp.N)
		back := new(big.Int).Exp(sig, rp.E, rp.N)
		if back.Cmp(probe) != 0 {
			return errors.New("mathx: e,d are not inverse exponents")
		}
	}
	return nil
}

// Public returns a copy with the secret components stripped, suitable for
// distribution to protocol participants.
func (rp *RSAParams) Public() *RSAParams {
	return &RSAParams{N: new(big.Int).Set(rp.N), E: new(big.Int).Set(rp.E)}
}

// String renders a short fingerprint for logs; secrets are never printed.
func (rp *RSAParams) String() string {
	return fmt.Sprintf("RSAParams{n:%d bits, e:%v}", rp.N.BitLen(), rp.E)
}

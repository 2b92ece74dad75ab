// Package ecdsa implements ECDSA over internal/ec from scratch, providing
// the paper's "BD with 160-bit ECDSA" certificate-based baseline
// (secp160r1 by default).
//
// Signatures are (r, s), two order-sized integers — 320 bits on the wire at
// the 160-bit level, the size Table 3 charges.
package ecdsa

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/ec"
	"idgka/internal/hashx"
	"idgka/internal/mathx"
)

// KeyPair holds an ECDSA key pair on a curve.
type KeyPair struct {
	Curve *ec.Curve
	D     mathx.Scalar // private scalar, in [1, N-1]
	Q     ec.Point     // public point D*G
}

// Signature is the ECDSA pair (r, s).
type Signature struct {
	R, S *big.Int
}

// GenerateKey draws a fresh key pair on the curve.
func GenerateKey(rnd io.Reader, c *ec.Curve) (*KeyPair, error) {
	d, err := mathx.DrawScalar(rnd, c.N)
	if err != nil {
		return nil, fmt.Errorf("ecdsa: keygen: %w", err)
	}
	return &KeyPair{Curve: c, D: d, Q: c.ScalarBaseMult(d.BigVarTime())}, nil
}

// PublicOnly returns a verification-only copy.
func (kp *KeyPair) PublicOnly() *KeyPair {
	return &KeyPair{Curve: kp.Curve, Q: kp.Q}
}

// Sign produces a signature on msg.
func (kp *KeyPair) Sign(rnd io.Reader, msg []byte) (*Signature, error) {
	if kp.D.Order() == nil {
		return nil, errors.New("ecdsa: signing needs the private key")
	}
	c := kp.Curve
	e := hashx.ScalarDigest(hashx.TagECDSADigest, c.N, msg)
	for attempt := 0; attempt < 64; attempt++ {
		k, err := c.RandScalar(rnd)
		if err != nil {
			return nil, err
		}
		pt := c.ScalarBaseMult(k)
		r := new(big.Int).Mod(pt.X, c.N)
		if r.Sign() == 0 {
			continue
		}
		kInv, err := mathx.ModInverse(k, c.N)
		if err != nil {
			continue
		}
		s := new(big.Int).Mul(kp.D.BigVarTime(), r)
		s.Add(s, e)
		s.Mul(s, kInv)
		s.Mod(s, c.N)
		if s.Sign() == 0 {
			continue
		}
		return &Signature{R: r, S: s}, nil
	}
	return nil, errors.New("ecdsa: signing retries exhausted")
}

// Verify checks sig on msg against the public key.
func (kp *KeyPair) Verify(msg []byte, sig *Signature) error {
	if sig == nil || sig.R == nil || sig.S == nil {
		return errors.New("ecdsa: malformed signature")
	}
	c := kp.Curve
	if sig.R.Sign() <= 0 || sig.R.Cmp(c.N) >= 0 || sig.S.Sign() <= 0 || sig.S.Cmp(c.N) >= 0 {
		return errors.New("ecdsa: signature component out of range")
	}
	if kp.Q.IsInfinity() || !c.IsOnCurve(kp.Q) {
		return errors.New("ecdsa: invalid public key")
	}
	e := hashx.ScalarDigest(hashx.TagECDSADigest, c.N, msg)
	w, err := mathx.ModInverse(sig.S, c.N)
	if err != nil {
		return errors.New("ecdsa: s not invertible")
	}
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, c.N)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, c.N)
	pt := c.Add(c.ScalarBaseMult(u1), c.ScalarMult(kp.Q, u2))
	if pt.IsInfinity() {
		return errors.New("ecdsa: verification failed (infinity)")
	}
	v := new(big.Int).Mod(pt.X, c.N)
	if v.Cmp(sig.R) != 0 {
		return errors.New("ecdsa: verification failed")
	}
	return nil
}

// Encode serialises the signature as two order-sized big-endian blocks.
func (s *Signature) Encode(c *ec.Curve) []byte {
	bl := (c.N.BitLen() + 7) / 8
	out := make([]byte, 2*bl)
	s.R.FillBytes(out[:bl])
	s.S.FillBytes(out[bl:])
	return out
}

// Decode parses a signature produced by Encode.
func Decode(data []byte, c *ec.Curve) (*Signature, error) {
	bl := (c.N.BitLen() + 7) / 8
	if len(data) != 2*bl {
		return nil, fmt.Errorf("ecdsa: bad signature length %d", len(data))
	}
	return &Signature{
		R: new(big.Int).SetBytes(data[:bl]),
		S: new(big.Int).SetBytes(data[bl:]),
	}, nil
}

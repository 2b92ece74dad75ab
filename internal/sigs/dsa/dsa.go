// Package dsa implements the Digital Signature Algorithm over a Schnorr
// group from scratch, providing the paper's "BD with 1024-bit DSA"
// certificate-based baseline.
//
// Signatures are the classic (r, s) pair of q-sized integers (2×160 bits =
// 320 bits on the wire, the size Table 3 charges for).
package dsa

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/hashx"
	"idgka/internal/mathx"
)

// KeyPair holds a DSA private/public key over the given Schnorr group.
type KeyPair struct {
	Group *mathx.SchnorrGroup
	X     mathx.Scalar // private, in [1, q-1]
	Y     *big.Int     // public, g^x mod p
}

// Signature is the DSA pair (r, s), both in [1, q-1].
type Signature struct {
	R, S *big.Int
}

// GenerateKey draws a fresh key pair.
func GenerateKey(rnd io.Reader, g *mathx.SchnorrGroup) (*KeyPair, error) {
	x, err := mathx.DrawScalar(rnd, g.Q)
	if err != nil {
		return nil, fmt.Errorf("dsa: keygen: %w", err)
	}
	return &KeyPair{Group: g, X: x, Y: g.Exp(x.BigVarTime())}, nil
}

// PublicOnly returns a verification-only copy of the key pair.
func (kp *KeyPair) PublicOnly() *KeyPair {
	return &KeyPair{Group: kp.Group, Y: kp.Y}
}

// Sign produces a signature on msg. The per-signature nonce k is drawn from
// rnd; the rare degenerate cases (r = 0 or s = 0) are retried.
func (kp *KeyPair) Sign(rnd io.Reader, msg []byte) (*Signature, error) {
	if kp.X.Order() == nil {
		return nil, errors.New("dsa: signing needs the private key")
	}
	g := kp.Group
	h := hashx.ScalarDigest(hashx.TagDSADigest, g.Q, msg)
	for attempt := 0; attempt < 64; attempt++ {
		k, err := mathx.RandScalar(rnd, g.Q)
		if err != nil {
			return nil, err
		}
		r := g.Exp(k)
		r.Mod(r, g.Q)
		if r.Sign() == 0 {
			continue
		}
		kInv, err := mathx.ModInverse(k, g.Q)
		if err != nil {
			continue
		}
		// s = k^-1 (h + x r) mod q
		s := new(big.Int).Mul(kp.X.BigVarTime(), r)
		s.Add(s, h)
		s.Mul(s, kInv)
		s.Mod(s, g.Q)
		if s.Sign() == 0 {
			continue
		}
		return &Signature{R: r, S: s}, nil
	}
	return nil, errors.New("dsa: signing retries exhausted")
}

// Verify checks a signature against the public key in kp.
func (kp *KeyPair) Verify(msg []byte, sig *Signature) error {
	if sig == nil || sig.R == nil || sig.S == nil {
		return errors.New("dsa: malformed signature")
	}
	g := kp.Group
	if sig.R.Sign() <= 0 || sig.R.Cmp(g.Q) >= 0 || sig.S.Sign() <= 0 || sig.S.Cmp(g.Q) >= 0 {
		return errors.New("dsa: signature component out of range")
	}
	h := hashx.ScalarDigest(hashx.TagDSADigest, g.Q, msg)
	w, err := mathx.ModInverse(sig.S, g.Q)
	if err != nil {
		return errors.New("dsa: s not invertible")
	}
	u1 := new(big.Int).Mul(h, w)
	u1.Mod(u1, g.Q)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, g.Q)
	// v = (g^u1 · y^u2 mod p) mod q. The g^u1 leg is a fixed-base power,
	// a walk of the group's comb table (built on first use, bit-identical
	// to big.Exp); the variable-base y^u2 leg stays on big.Exp.
	v := g.Exp(u1)
	yv := new(big.Int).Exp(kp.Y, u2, g.P)
	v.Mul(v, yv)
	v.Mod(v, g.P)
	v.Mod(v, g.Q)
	if v.Cmp(sig.R) != 0 {
		return errors.New("dsa: verification failed")
	}
	return nil
}

// Encode serialises the signature as two q-sized big-endian blocks.
func (s *Signature) Encode(q *big.Int) []byte {
	bl := (q.BitLen() + 7) / 8
	out := make([]byte, 2*bl)
	s.R.FillBytes(out[:bl])
	s.S.FillBytes(out[bl:])
	return out
}

// Decode parses a signature produced by Encode.
func Decode(data []byte, q *big.Int) (*Signature, error) {
	bl := (q.BitLen() + 7) / 8
	if len(data) != 2*bl {
		return nil, fmt.Errorf("dsa: bad signature length %d", len(data))
	}
	return &Signature{
		R: new(big.Int).SetBytes(data[:bl]),
		S: new(big.Int).SetBytes(data[bl:]),
	}, nil
}

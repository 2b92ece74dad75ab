// Package gq implements the variant of the Guillou-Quisquater ID-based
// signature scheme from Section 3 of the paper, together with the
// commitment/response split and the n-signature batch verification that
// Section 4's group key agreement is built on.
//
// Scheme summary (all arithmetic mod the PKG modulus n):
//
//	Setup:   PKG holds n = p'q', public exponent e, secret d with
//	         e·d ≡ 1 (mod λ(n)).
//	Extract: S_ID = H(ID)^d.
//	Sign:    τ ∈R Z_n^*, t = τ^e, c = H(t, M), s = τ·S_ID^c; σ = (s, c).
//	Verify:  c == H(s^e · H(ID)^{-c}, M).
//
// Batch verification over a set of signers sharing ONE challenge c:
//
//	c == H((Π s_i)^e · (Π H(ID_i))^{-c}, Z)
//
// which costs a single verification-sized computation regardless of the
// number of signers — the paper's core efficiency argument.
package gq

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"idgka/internal/hashx"
	"idgka/internal/mathx"
)

// Params carries the public GQ parameters (n, e).
type Params struct {
	N *big.Int
	E *big.Int

	// mo is the parameter set's cached Montgomery context for N when the
	// view came from ParamsFrom; nil otherwise.
	mo *mathx.Modulus
}

// ParamsFrom extracts the public view of an RSA parameter set, carrying
// its cached Montgomery context.
func ParamsFrom(rp *mathx.RSAParams) Params {
	return Params{N: rp.N, E: rp.E, mo: rp.Mont()}
}

// mont returns the Montgomery context for N: the cached one, or a fresh
// one for a view built without ParamsFrom.
func (pub Params) mont() (*mathx.Modulus, error) {
	if pub.mo != nil {
		return pub.mo, nil
	}
	return mathx.NewModulus(pub.N)
}

// PrivateKey is the ID-based secret S_ID = H(ID)^d delivered by the PKG.
type PrivateKey struct {
	ID string
	//gkalint:secret
	S   *big.Int
	Pub Params

	// fixedBase caches the windowed precomputation table for S_ID,
	// attached by Precompute. S_ID is exponentiated by a fresh challenge
	// on every response the member signs, so the table pays for itself
	// after a handful of rounds. Published atomically because one key may
	// be shared by an application goroutine and a verification pool.
	fixedBase atomic.Pointer[mathx.FixedBaseTable]
}

// Precompute attaches a fixed-base table for S_ID covering challenge-
// sized exponents, accelerating Respond (and hence Sign). Idempotent,
// safe for concurrent use, and mathematically transparent: responses are
// bit-identical to the naive computation.
func (sk *PrivateKey) Precompute() *mathx.FixedBaseTable {
	if sk == nil || sk.S == nil || sk.Pub.N == nil {
		return nil
	}
	if t := sk.fixedBase.Load(); t != nil {
		return t
	}
	t, err := mathx.NewFixedBaseTable(sk.S, sk.Pub.N, hashx.ChallengeBits, mathx.DefaultWindow)
	if err != nil {
		return nil
	}
	sk.fixedBase.CompareAndSwap(nil, t)
	return sk.fixedBase.Load()
}

// Signature is the GQ pair σ = (s, c).
type Signature struct {
	S *big.Int // 1024-bit response
	C *big.Int // 160-bit challenge
}

// Extract computes the secret key for an identity using the PKG master
// exponent d. This is the paper's Extract phase; only the PKG can run it.
func Extract(rp *mathx.RSAParams, id string) (*PrivateKey, error) {
	if rp.D == nil {
		return nil, errors.New("gq: Extract requires the PKG master key")
	}
	if id == "" {
		return nil, errors.New("gq: empty identity")
	}
	h := hashx.IdentityDigest(id, rp.N)
	s := new(big.Int).Exp(h, rp.D, rp.N)
	return &PrivateKey{ID: id, S: s, Pub: ParamsFrom(rp)}, nil
}

// Commitment draws the per-signature randomness: τ ∈R Z_n^* and its public
// image t = τ^e mod n. In the group protocol, t is the value t_i broadcast
// in Round 1.
func Commitment(r io.Reader, pub Params) (tau, t *big.Int, err error) {
	if pub.E == nil || pub.E.Sign() < 0 {
		return nil, nil, errors.New("gq: commitment: nil or negative public exponent")
	}
	mo, err := pub.mont()
	if err != nil {
		return nil, nil, fmt.Errorf("gq: commitment: %w", err)
	}
	tau, err = mathx.RandUnit(r, pub.N)
	if err != nil {
		return nil, nil, fmt.Errorf("gq: commitment: %w", err)
	}
	return tau, mo.FromMont(mo.ExpElem(mo.ToMont(tau), pub.E)), nil
}

// Respond computes the response s = τ·S_ID^c mod n for a previously drawn
// commitment τ and an agreed challenge c, through the fixed-base table
// when one has been precomputed. In the group protocol this is the s_i
// broadcast in Round 2.
func (sk *PrivateKey) Respond(tau, c *big.Int) *big.Int {
	if t := sk.fixedBase.Load(); t != nil {
		return t.ExpMul(c, tau)
	}
	s := new(big.Int).Exp(sk.S, c, sk.Pub.N)
	s.Mul(s, tau)
	return s.Mod(s, sk.Pub.N)
}

// Sign produces a standalone signature σ = (s, c) on msg, used by the
// Join and Merge dynamic protocols.
func (sk *PrivateKey) Sign(r io.Reader, msg []byte) (*Signature, error) {
	tau, t, err := Commitment(r, sk.Pub)
	if err != nil {
		return nil, err
	}
	c := hashx.Challenge(hashx.TagChallenge, hashx.BigBytes(t), msg)
	return &Signature{S: sk.Respond(tau, c), C: c}, nil
}

// Verify checks a standalone signature, c == H(s^e · H(ID)^{-c}, msg),
// as a one-identity GroupVerifier. A challenge longer than the challenge
// hash is refused before any exponentiation, so a peer cannot buy CPU
// with an oversized exponent.
func Verify(pub Params, id string, msg []byte, sig *Signature) error {
	if sig == nil {
		return errors.New("gq: malformed signature")
	}
	gv, err := NewGroupVerifier(pub, []string{id})
	if err != nil {
		return err
	}
	lhs, err := gv.commitment([]*big.Int{sig.S}, sig.C)
	if err != nil {
		return err
	}
	if hashx.Challenge(hashx.TagChallenge, hashx.BigBytes(lhs), msg).Cmp(sig.C) != 0 {
		return errors.New("gq: signature verification failed")
	}
	return nil
}

// GroupChallenge derives the common challenge c = H(T, Z) of the group
// protocol, where T = Π t_i mod n and Z = Π z_i mod p.
func GroupChallenge(t, z *big.Int) *big.Int {
	return hashx.Challenge(hashx.TagChallenge, hashx.BigBytes(t), hashx.BigBytes(z))
}

// GroupVerifier checks equation (2) for one fixed signer set. Construction
// hashes every identity, folds the digests into H = Π H(ID_i) and inverts
// it once, so each BatchVerify costs one response product, one short
// public-exponent power and one challenge-sized power of the cached
// inverse. Safe for concurrent use once built.
type GroupVerifier struct {
	pub      Params
	mo       *mathx.Modulus
	n        int        // signer count
	hInvMont mathx.Elem // H^{-1} in the Montgomery domain
}

// NewGroupVerifier builds the verification context for a signer set.
func NewGroupVerifier(pub Params, ids []string) (*GroupVerifier, error) {
	if len(ids) == 0 {
		return nil, errors.New("gq: empty signer set")
	}
	if pub.E == nil || pub.E.Sign() < 0 {
		return nil, errors.New("gq: nil or negative public exponent")
	}
	mo, err := pub.mont()
	if err != nil {
		return nil, err
	}
	digests := make([]*big.Int, len(ids))
	for i, id := range ids {
		digests[i] = hashx.IdentityDigest(id, pub.N)
	}
	hInv, err := mathx.ModInverse(mo.Product(digests), pub.N)
	if err != nil {
		return nil, fmt.Errorf("gq: identity product not invertible: %w", err)
	}
	return &GroupVerifier{pub: pub, mo: mo, n: len(ids), hInvMont: mo.ToMont(hInv)}, nil
}

// BatchVerify checks equation (2) for one round of the signer set:
//
//	c == H((Π s_i)^e · (Π H(ID_i))^{-c}, Z)
func (gv *GroupVerifier) BatchVerify(responses []*big.Int, c, z *big.Int) error {
	lhs, err := gv.commitment(responses, c)
	if err != nil {
		return err
	}
	if GroupChallenge(lhs, z).Cmp(c) != 0 {
		return errors.New("gq: batch verification failed")
	}
	return nil
}

// errChallengeRange rejects a challenge no honest signer produces: a
// negative one, or one longer than the challenge hash.
var errChallengeRange = errors.New("gq: challenge out of range")

// commitment computes (Π s_i)^e · (Π H(ID_i))^{-c} mod n in the
// Montgomery domain: the commitment product a valid set of responses
// recovers. Malformed inputs are rejected before any exponentiation.
func (gv *GroupVerifier) commitment(responses []*big.Int, c *big.Int) (*big.Int, error) {
	if len(responses) != gv.n {
		return nil, errors.New("gq: batch size mismatch")
	}
	if c == nil {
		return nil, errors.New("gq: nil challenge")
	}
	if c.Sign() < 0 || c.BitLen() > hashx.ChallengeBits {
		return nil, errChallengeRange
	}
	for i, s := range responses {
		if s == nil || s.Sign() <= 0 || s.Cmp(gv.pub.N) >= 0 {
			return nil, fmt.Errorf("gq: response %d out of range", i)
		}
	}
	mo := gv.mo
	lhs := mo.ExpElem(mo.ToMont(mo.Product(responses)), gv.pub.E)
	mo.MulInto(lhs, lhs, mo.ExpElem(gv.hInvMont, c))
	return mo.FromMont(lhs), nil
}

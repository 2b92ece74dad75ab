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
	"crypto/rand"
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

// Verify checks a standalone signature: c == H(s^e · H(ID)^{-c}, msg).
func Verify(pub Params, id string, msg []byte, sig *Signature) error {
	if sig == nil || sig.S == nil || sig.C == nil {
		return errors.New("gq: malformed signature")
	}
	if sig.S.Sign() <= 0 || sig.S.Cmp(pub.N) >= 0 {
		return errors.New("gq: signature response out of range")
	}
	lhs, err := recoverCommitment(pub, []string{id}, sig.S, sig.C)
	if err != nil {
		return err
	}
	c := hashx.Challenge(hashx.TagChallenge, hashx.BigBytes(lhs), msg)
	if c.Cmp(sig.C) != 0 {
		return errors.New("gq: signature verification failed")
	}
	return nil
}

// recoverCommitment computes s^e · (Π H(ID_i))^{-c} mod n — the quantity
// that equals the (product of) commitment(s) for a valid (batch of)
// signature(s).
func recoverCommitment(pub Params, ids []string, s, c *big.Int) (*big.Int, error) {
	return foldCommitment(pub, identityProduct(pub, ids), s, c)
}

// GroupChallenge derives the common challenge c = H(T, Z) of the group
// protocol, where T = Π t_i mod n and Z = Π z_i mod p.
func GroupChallenge(t, z *big.Int) *big.Int {
	return hashx.Challenge(hashx.TagChallenge, hashx.BigBytes(t), hashx.BigBytes(z))
}

// BatchVerify checks equation (2) of the paper: given the signer
// identities, their responses s_i, the common challenge c and the bound
// value Z, it verifies all signatures with one exponentiation-sized check:
//
//	c == H((Π s_i)^e · (Π H(ID_i))^{-c}, Z)
func BatchVerify(pub Params, ids []string, responses []*big.Int, c, z *big.Int) error {
	if len(ids) == 0 || len(ids) != len(responses) {
		return errors.New("gq: batch size mismatch")
	}
	for i, s := range responses {
		if s == nil || s.Sign() <= 0 || s.Cmp(pub.N) >= 0 {
			return fmt.Errorf("gq: response %d out of range", i)
		}
	}
	lhs, err := foldCommitment(pub, identityProduct(pub, ids), mathx.ProductMod(responses, pub.N), c)
	if err != nil {
		return err
	}
	check := hashx.Challenge(hashx.TagChallenge, hashx.BigBytes(lhs), hashx.BigBytes(z))
	if check.Cmp(c) != 0 {
		return errors.New("gq: batch verification failed")
	}
	return nil
}

// identityProduct computes Π H(ID_i) mod n.
func identityProduct(pub Params, ids []string) *big.Int {
	return mathx.ProductMod(identityDigests(pub, ids), pub.N)
}

// identityDigests hashes every identity to H(ID_i).
func identityDigests(pub Params, ids []string) []*big.Int {
	digests := make([]*big.Int, len(ids))
	for i, id := range ids {
		digests[i] = hashx.IdentityDigest(id, pub.N)
	}
	return digests
}

// foldCommitment computes s^e · hProd^{-c} mod n given a precomputed
// identity product.
func foldCommitment(pub Params, hProd, s, c *big.Int) (*big.Int, error) {
	se := new(big.Int).Exp(s, pub.E, pub.N)
	hInvC, err := mathx.ModExp(hProd, new(big.Int).Neg(c), pub.N)
	if err != nil {
		return nil, fmt.Errorf("gq: identity product not invertible: %w", err)
	}
	se.Mul(se, hInvC)
	return se.Mod(se, pub.N), nil
}

// SignDeterministicRand is a helper for tests that need reproducible
// signatures: it signs with the supplied reader instead of crypto/rand.
func (sk *PrivateKey) SignDeterministicRand(r io.Reader, msg []byte) (*Signature, error) {
	return sk.Sign(r, msg)
}

// SignDefault signs with crypto/rand.
func (sk *PrivateKey) SignDefault(msg []byte) (*Signature, error) {
	return sk.Sign(rand.Reader, msg)
}

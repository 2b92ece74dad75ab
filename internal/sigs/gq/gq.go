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
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"idgka/internal/hashx"
	"idgka/internal/mathx"
)

// PrivateKey is the ID-based secret S_ID = H(ID)^d delivered by the PKG.
type PrivateKey struct {
	ID  string
	S   mathx.Scalar     // S_ID, below N
	Pub *mathx.RSAParams // the public view (N, e) of the PKG's set

	// fixedBase caches the fixed-base comb table for S_ID, built on first
	// use by table. S_ID is exponentiated by a fresh challenge on every
	// response the member signs, so the table pays for itself after a
	// handful of rounds. Published atomically because every machine built
	// on the key may sign concurrently.
	fixedBase atomic.Pointer[mathx.FixedBaseTable]
}

// table returns the comb table of S_ID over N's Montgomery context for
// challenge-sized exponents, building it on first use. A concurrent
// first use may build a second table; only one is ever published.
func (sk *PrivateKey) table() *mathx.FixedBaseTable {
	if t := sk.fixedBase.Load(); t != nil {
		return t
	}
	t, err := mathx.NewFixedBaseTable(sk.S.BigVarTime(), sk.Pub.Mont(), hashx.ChallengeBits)
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
	if rp.D.Order() == nil {
		return nil, errors.New("gq: Extract requires the PKG master key")
	}
	if id == "" {
		return nil, errors.New("gq: empty identity")
	}
	h := hashx.IdentityDigest(id, rp.N)
	s, err := mathx.NewScalar(rp.N, new(big.Int).Exp(h, rp.D.BigVarTime(), rp.N))
	if err != nil {
		return nil, fmt.Errorf("gq: extract: %w", err)
	}
	return &PrivateKey{ID: id, S: s, Pub: rp.Public()}, nil
}

// Commitment draws the per-signature randomness: τ ∈R [1, n-1] and its
// public image t = τ^e mod n. In the group protocol, t is the value t_i
// broadcast in Round 1. τ is not tested for coprimality with n: for an
// RSA modulus of two 512-bit primes a uniform τ is a non-unit with
// probability below 2^-510, and the test would be a GCD on a secret.
func Commitment(r io.Reader, pub *mathx.RSAParams) (tau mathx.Scalar, t *big.Int, err error) {
	if pub.E == nil || pub.E.Sign() < 0 {
		return mathx.Scalar{}, nil, errors.New("gq: commitment: nil or negative public exponent")
	}
	mo := pub.Mont()
	if mo == nil {
		return mathx.Scalar{}, nil, errors.New("gq: commitment: modulus unusable")
	}
	tau, err = mathx.DrawScalar(r, pub.N)
	if err != nil {
		return mathx.Scalar{}, nil, fmt.Errorf("gq: commitment: %w", err)
	}
	return tau, mo.FromMont(mo.ExpElem(mo.ToMontScalar(tau), pub.E)), nil
}

// Respond computes the response s = τ·S_ID^c mod n for a previously drawn
// commitment τ and an agreed challenge c, as a walk of S_ID's comb table.
// In the group protocol this is the s_i broadcast in Round 2. Respond is
// defined on a key Extract returns.
func (sk *PrivateKey) Respond(tau mathx.Scalar, c *big.Int) *big.Int {
	return sk.table().ExpMulScalar(c, tau)
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
// on the identity's shared one-identity verifier, so a recurring signer
// is hashed and inverted once. A challenge longer than the challenge
// hash is refused before any exponentiation, so a peer cannot buy CPU
// with an oversized exponent.
func Verify(pub *mathx.RSAParams, id string, msg []byte, sig *Signature) error {
	if sig == nil {
		return errors.New("gq: malformed signature")
	}
	gv, err := SharedVerifier(pub, []string{id})
	if err != nil {
		return err
	}
	packed := gv.mo.NewPacked(1)
	packed.Load(0, sig.S) // commitment refuses a response out of range
	lhs, err := gv.commitment(packed, sig.C)
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

// promoteAfter is the number of range-checked checks a verifier serves
// before it attaches a fixed-base table of hInv; the promoteAfter-th
// builds it. At the 1024-bit N the comb costs ~0.45 ms to build and a
// tabled check saves ~0.13 ms against the 160-bit ExpElem
// (BenchmarkBatchVerify4, 2-vCPU Xeon), so the table pays for itself
// after about four checks; a signer set checked fewer times never
// builds one.
const promoteAfter = 4

// GroupVerifier checks equation (2) for one fixed signer set. Construction
// hashes every identity, folds the digests into H = Π H(ID_i) and inverts
// it once, so each BatchVerifyPacked costs one response product, one
// short public-exponent power and one challenge-sized power of the cached
// inverse. The promoteAfter-th check attaches a fixed-base table of the
// inverse, which turns that power into a table walk for every later
// check. Safe for concurrent use once built.
type GroupVerifier struct {
	e    *big.Int // public exponent
	mo   *mathx.Modulus
	n    int      // signer count
	hInv *big.Int // H^{-1} mod N, public

	// uses counts the range-checked checks served before the table is
	// attached; the one that reaches promoteAfter builds it, outside any
	// lock, and publishes it by compare-and-swap.
	uses atomic.Int64
	tab  atomic.Pointer[mathx.FixedBaseTable]
}

// NewGroupVerifier builds the verification context for a signer set.
func NewGroupVerifier(pub *mathx.RSAParams, ids []string) (*GroupVerifier, error) {
	if len(ids) == 0 {
		return nil, errors.New("gq: empty signer set")
	}
	if pub.E == nil || pub.E.Sign() < 0 {
		return nil, errors.New("gq: nil or negative public exponent")
	}
	mo := pub.Mont()
	if mo == nil {
		return nil, errors.New("gq: modulus unusable")
	}
	digests := make([]*big.Int, len(ids))
	for i, id := range ids {
		digests[i] = hashx.IdentityDigest(id, pub.N)
	}
	hInv, err := mathx.ModInverse(mo.Product(digests), pub.N)
	if err != nil {
		return nil, fmt.Errorf("gq: identity product not invertible: %w", err)
	}
	return &GroupVerifier{e: pub.E, mo: mo, n: len(ids), hInv: hInv}, nil
}

// table returns the fixed-base table of hInv, counting one more check
// while there is none and building it on the promoteAfter-th.
func (gv *GroupVerifier) table() *mathx.FixedBaseTable {
	if t := gv.tab.Load(); t != nil {
		return t
	}
	if gv.uses.Add(1) != promoteAfter {
		return nil
	}
	t, err := mathx.NewFixedBaseTable(gv.hInv, gv.mo, hashx.ChallengeBits)
	if err != nil {
		return nil
	}
	gv.tab.CompareAndSwap(nil, t)
	return gv.tab.Load()
}

// BatchVerifyPacked checks equation (2) for one round of the signer
// set,
//
//	c == H((Π s_i)^e · (Π H(ID_i))^{-c}, Z),
//
// over the responses in the form a caller that decodes them straight off
// the wire holds: response i in slot i of a Packed of N's Modulus.
func (gv *GroupVerifier) BatchVerifyPacked(packed mathx.Packed, c, z *big.Int) error {
	lhs, err := gv.commitment(packed, c)
	if err != nil {
		return err
	}
	if GroupChallenge(lhs, z).Cmp(c) != 0 {
		return errors.New("gq: batch verification failed")
	}
	return nil
}

// errBatchSize rejects a response count other than the signer count.
var errBatchSize = errors.New("gq: batch size mismatch")

// errChallengeRange rejects a challenge no honest signer produces: a
// negative one, or one longer than the challenge hash.
var errChallengeRange = errors.New("gq: challenge out of range")

// commitment computes (Π s_i)^e · (Π H(ID_i))^{-c} mod n: the commitment
// product a valid set of responses recovers, from the responses packed
// one per slot. The response product lands in the Montgomery domain
// directly and (Π s_i)^e is an ExpElem power there. hInv^c is
// another until the verifier is tabled; from then on (Π s_i)^e rides the
// table walk's conversion out. Malformed inputs are rejected before any
// exponentiation, and the range check keeps every walked challenge
// within the table's bits.
func (gv *GroupVerifier) commitment(packed mathx.Packed, c *big.Int) (*big.Int, error) {
	mo := gv.mo
	if packed.Len() != gv.n {
		return nil, errBatchSize
	}
	if c == nil {
		return nil, errors.New("gq: nil challenge")
	}
	if c.Sign() < 0 || c.BitLen() > hashx.ChallengeBits {
		return nil, errChallengeRange
	}
	for i := 0; i < gv.n; i++ {
		if !packed.InRange(i) {
			return nil, fmt.Errorf("gq: response %d out of range", i)
		}
	}
	lhs := mo.ExpElem(mo.ProductMontOf(packed), gv.e)
	if tab := gv.table(); tab != nil {
		return tab.ExpMul(c, mo.FromMont(lhs)), nil
	}
	mo.MulInto(lhs, lhs, mo.ExpElem(mo.ToMont(gv.hInv), c))
	return mo.FromMont(lhs), nil
}

// verifierCacheSize bounds the process-wide verifier cache. A tabled
// entry holds an 80 KiB comb at the 1024-bit N where the radix-2^52
// lane runs (2·2^8 entries of 20 limbs; 64 KiB of 16 words elsewhere),
// so the cache's table memory stays under 64 × 80 KiB = 5 MiB, scaling
// linearly with the modulus width. The signer sets a process
// checks over and over fit with room to spare: gkaperf's serve-churn
// workload keys at most 48 (16 establish and 16 leave rosters, up to 16
// joiners), tcp-hub 4 and ring32 1.
const verifierCacheSize = 64

// verifiers is the process-wide LRU cache behind SharedVerifier, most
// recently used first. Its entries hold only public values (identity
// digests' inverse and its table), so members of different groups share
// them freely.
var verifiers = struct {
	mu    sync.Mutex
	byKey map[verifierKey]*list.Element // of *cachedVerifier
	lru   list.List
}{byKey: map[verifierKey]*list.Element{}}

// cachedVerifier is one verifiers entry.
type cachedVerifier struct {
	key verifierKey
	gv  *GroupVerifier
}

// SharedVerifier returns the process-wide verifier for a signer set under
// pub, keyed by a digest of (N, e, ids), so recurring rosters and signers
// — across rounds, sessions and every member of the process — share the
// identity hashing, the inversion and, once promoted, the fixed-base
// table. A miss builds the verifier outside the cache lock; the cache
// keeps the verifierCacheSize most recently used sets.
func SharedVerifier(pub *mathx.RSAParams, ids []string) (*GroupVerifier, error) {
	if pub.N == nil || pub.E == nil {
		return NewGroupVerifier(pub, ids)
	}
	key := keyOf(pub, ids)
	verifiers.mu.Lock()
	if el, ok := verifiers.byKey[key]; ok {
		verifiers.lru.MoveToFront(el)
		verifiers.mu.Unlock()
		return el.Value.(*cachedVerifier).gv, nil
	}
	verifiers.mu.Unlock()
	gv, err := NewGroupVerifier(pub, ids)
	if err != nil {
		return nil, err
	}
	verifiers.mu.Lock()
	defer verifiers.mu.Unlock()
	if el, ok := verifiers.byKey[key]; ok { // built concurrently: keep the first
		verifiers.lru.MoveToFront(el)
		return el.Value.(*cachedVerifier).gv, nil
	}
	verifiers.byKey[key] = verifiers.lru.PushFront(&cachedVerifier{key, gv})
	if verifiers.lru.Len() > verifierCacheSize {
		old := verifiers.lru.Remove(verifiers.lru.Back()).(*cachedVerifier)
		delete(verifiers.byKey, old.key)
	}
	return gv, nil
}

// verifierKey is the SHA-256 digest of an injective encoding of (N, e,
// ids): a fixed-size cache key, so a lookup copies neither N nor the
// roster onto the heap.
type verifierKey [sha256.Size]byte

// keyOf digests (N, e, ids), every field length-prefixed, with N and e as
// their little-endian words. The encoding is built in a stack buffer,
// which a roster of up to a few dozen short identities fits.
func keyOf(pub *mathx.RSAParams, ids []string) verifierKey {
	var buf [1024]byte
	b := buf[:0]
	for _, v := range []*big.Int{pub.N, pub.E} {
		words := v.Bits()
		b = binary.AppendUvarint(b, uint64(len(words)))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, uint64(w))
		}
	}
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(len(id)))
		b = append(b, id...)
	}
	return sha256.Sum256(b)
}

// Amortized batch verification: the per-membership GroupVerifier caches
// everything about a signer set that BatchVerify recomputes on every call
// (identity digests, their product, and a fixed-base table for the
// inverse product), and the Claim/VerifyClaimsRLC pair lets a host defer
// many groups' batch checks and settle them with one random-linear-
// combination equation per wakeup.

package gq

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/hashx"
	"idgka/internal/mathx"
)

// RLCBits is the bit length of the random exponents in VerifyClaimsRLC.
// A forged claim survives a combined check with probability about
// 2^-RLCBits (see the soundness note on VerifyClaimsRLC); 64 is the
// conventional strength for small-exponent batch tests and keeps the
// scaled challenge exponents c_j·ρ_j short enough that the combined
// chain beats per-claim verification already at small batch sizes.
const RLCBits = 64

// GroupVerifier is the amortized batch-verification context for one fixed
// signer set. Construction hashes every identity, folds the digest
// product H = Π H(ID_i), inverts it once and (NewGroupVerifier only)
// builds a fixed-base table for the inverse, so each subsequent
// BatchVerify costs one response product, one short public-exponent
// power and a power of the cached inverse — no per-round hashing or
// inversion. Verdicts are identical to gq.BatchVerify. Safe for
// concurrent use once built.
type GroupVerifier struct {
	pub      Params
	mo       *mathx.Modulus
	ids      []string
	hProd    *big.Int
	hInv     *big.Int
	hInvMont mathx.Elem // hInv's Montgomery image
	hInvTab  *mathx.FixedBaseTable
}

// NewGroupVerifier builds the cached context for a signer set, including
// a fixed-base table for the inverse identity product.
func NewGroupVerifier(pub Params, ids []string) (*GroupVerifier, error) {
	gv, err := NewClaimBuilder(pub, ids)
	if err != nil {
		return nil, err
	}
	if gv.hInvTab, err = mathx.NewFixedBaseTable(gv.hInv, pub.N, hashx.ChallengeBits, mathx.DefaultWindow); err != nil {
		return nil, err
	}
	return gv, nil
}

// NewClaimBuilder is NewGroupVerifier without the fixed-base table: the
// right shape when the signer set keys only a few rounds, or only emits
// claims (claims never walk the table), costing one identity-product
// hash and one inversion instead of a full table build. BatchVerify
// still works, through a plain exponentiation of the cached inverse.
func NewClaimBuilder(pub Params, ids []string) (*GroupVerifier, error) {
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
	hProd := mo.Product(identityDigests(pub, ids))
	hInv, err := mathx.ModInverse(hProd, pub.N)
	if err != nil {
		return nil, fmt.Errorf("gq: identity product not invertible: %w", err)
	}
	return &GroupVerifier{
		pub:      pub,
		mo:       mo,
		ids:      append([]string(nil), ids...),
		hProd:    hProd,
		hInv:     hInv,
		hInvMont: mo.ToMont(hInv),
	}, nil
}

// IDs returns the signer set the verifier was built for (read-only).
func (gv *GroupVerifier) IDs() []string { return gv.ids }

// BatchVerify checks equation (2) for one round of the cached signer set:
// c == H((Π s_i)^e · (Π H(ID_i))^{-c}, Z). The verdict is identical to
// gq.BatchVerify over the same inputs; a nil or negative challenge is
// rejected as malformed, as Claim.Verify rejects it.
func (gv *GroupVerifier) BatchVerify(responses []*big.Int, c, z *big.Int) error {
	if len(responses) != len(gv.ids) {
		return errors.New("gq: batch size mismatch")
	}
	if c == nil || c.Sign() < 0 {
		return errors.New("gq: nil or negative challenge")
	}
	for i, s := range responses {
		if s == nil || s.Sign() <= 0 || s.Cmp(gv.pub.N) >= 0 {
			return fmt.Errorf("gq: response %d out of range", i)
		}
	}
	// (Π s_i)^e · hProd^{-c} in the Montgomery domain with one conversion
	// out; a tabled verifier instead hands (Π s_i)^e to the table walk as
	// its raw factor.
	mo := gv.mo
	lhsMont := mo.ExpElem(mo.ToMont(mo.Product(responses)), gv.pub.E)
	var lhs *big.Int
	if gv.hInvTab != nil {
		lhs = gv.hInvTab.ExpMul(c, mo.FromMont(lhsMont))
	} else {
		mo.MulInto(lhsMont, lhsMont, mo.ExpElem(gv.hInvMont, c))
		lhs = mo.FromMont(lhsMont)
	}
	check := hashx.Challenge(hashx.TagChallenge, hashx.BigBytes(lhs), hashx.BigBytes(z))
	if check.Cmp(c) != 0 {
		return errors.New("gq: batch verification failed")
	}
	return nil
}

// Claim carries the deferred batch-verification claim for a signer set's
// responses in one keying round:
//
//	SProd^e · HProd^{-c} ≡ T (mod n)
//
// with SProd = Π s_i, HProd = Π H(ID_i) and T = Π t_i. When the claimant
// derived c = H(T, Z) itself — as the protocol's round 2 does — the
// algebraic form is equivalent to the hash check of equation (2) up to
// hash collisions, and unlike the hash form it is linear, so many claims
// can be settled together (VerifyClaimsRLC).
type Claim struct {
	Pub   Params
	SProd *big.Int // Π s_i mod n
	HProd *big.Int // Π H(ID_i) mod n
	C     *big.Int // common challenge, = H(T, Z) at the claimant
	T     *big.Int // Π t_i mod n, the commitment product c hashes
	// HInv optionally carries HProd^{-1} from a membership cache
	// (GroupVerifier.NewClaim); when present, neither the individual nor
	// the combined check spends an inversion on this claim.
	HInv *big.Int
}

// NewClaim builds a claim against the verifier's cached signer set —
// identity digests, their product and its inverse all come from the
// cache, so a round's claim costs only the response product.
func (gv *GroupVerifier) NewClaim(responses []*big.Int, c, t *big.Int) (*Claim, error) {
	if len(responses) != len(gv.ids) {
		return nil, errors.New("gq: batch size mismatch")
	}
	if c == nil || t == nil {
		return nil, errors.New("gq: claim missing challenge or commitment")
	}
	for i, s := range responses {
		if s == nil || s.Sign() <= 0 || s.Cmp(gv.pub.N) >= 0 {
			return nil, fmt.Errorf("gq: response %d out of range", i)
		}
	}
	return &Claim{
		Pub:   gv.pub,
		SProd: gv.mo.Product(responses),
		HProd: gv.hProd,
		C:     c,
		T:     new(big.Int).Mod(t, gv.pub.N),
		HInv:  gv.hInv,
	}, nil
}

// NewClaim folds a signer set's responses into a deferred claim,
// performing the same malformed-input rejection as BatchVerify.
func NewClaim(pub Params, ids []string, responses []*big.Int, c, t *big.Int) (*Claim, error) {
	if len(ids) == 0 || len(ids) != len(responses) {
		return nil, errors.New("gq: batch size mismatch")
	}
	if c == nil || t == nil {
		return nil, errors.New("gq: claim missing challenge or commitment")
	}
	for i, s := range responses {
		if s == nil || s.Sign() <= 0 || s.Cmp(pub.N) >= 0 {
			return nil, fmt.Errorf("gq: response %d out of range", i)
		}
	}
	return &Claim{
		Pub:   pub,
		SProd: mathx.ProductMod(responses, pub.N),
		HProd: identityProduct(pub, ids),
		C:     c,
		T:     new(big.Int).Mod(t, pub.N),
	}, nil
}

func (cl *Claim) validate() error {
	if cl == nil || cl.SProd == nil || cl.HProd == nil || cl.C == nil || cl.T == nil ||
		cl.Pub.N == nil || cl.Pub.E == nil {
		return errors.New("gq: malformed claim")
	}
	if cl.C.Sign() < 0 {
		return errors.New("gq: negative claim challenge")
	}
	return nil
}

// Verify checks the claim individually (the fallback path).
func (cl *Claim) Verify() error {
	if err := cl.validate(); err != nil {
		return err
	}
	var lhs *big.Int
	if cl.HInv != nil {
		mo, err := cl.Pub.mont()
		if err != nil {
			return err
		}
		se, err := mo.Exp(cl.SProd, cl.Pub.E)
		if err != nil {
			return err
		}
		hc, err := mo.Exp(cl.HInv, cl.C)
		if err != nil {
			return err
		}
		lhs = mo.Product([]*big.Int{se, hc})
	} else {
		var err error
		lhs, err = foldCommitment(cl.Pub, cl.HProd, cl.SProd, cl.C)
		if err != nil {
			return err
		}
	}
	if lhs.Cmp(new(big.Int).Mod(cl.T, cl.Pub.N)) != 0 {
		return errors.New("gq: claim verification failed")
	}
	return nil
}

// VerifyClaimsRLC settles many deferred claims at once. Claims sharing a
// modulus are folded into one random-linear-combination equation
//
//	Π_j (SProd_j^e · HProd_j^{-c_j} · T_j^{-1})^{ρ_j} ≡ 1 (mod n)
//
// evaluated as a single interleaved multi-exponentiation in the
// Montgomery domain, with all the HProd/T inverses coming from one batch
// inversion. The ρ_j are independent odd RLCBits-bit exponents drawn from
// rnd: a claim whose defect d_j ≠ 1 passes only when ρ_j hits a specific
// residue class mod ord(d_j), probability ≤ 2^-RLCBits for full-order
// defects. Odd ρ kills order-2 defects outright, and crafting any other
// small-order defect mod an RSA n is as hard as factoring it (an order-2
// element yields a nontrivial square root of 1, i.e. a factor), so the
// amortized check is as sound as the individual one against anyone who
// cannot already forge at will. If the combined equation fails, every
// claim in that partition is re-checked individually and the first
// failing claim's error is returned — no false rejections, ever.
func VerifyClaimsRLC(rnd io.Reader, claims []*Claim) error {
	for _, cl := range claims {
		if err := cl.validate(); err != nil {
			return err
		}
	}
	// Partition by modulus: one combined equation per distinct n.
	parts := make(map[string][]*Claim)
	var order []string
	for _, cl := range claims {
		k := string(cl.Pub.N.Bytes())
		if _, ok := parts[k]; !ok {
			order = append(order, k)
		}
		parts[k] = append(parts[k], cl)
	}
	for _, k := range order {
		part := parts[k]
		if len(part) == 1 {
			if err := part[0].Verify(); err != nil {
				return err
			}
			continue
		}
		if err := rlcCheck(rnd, part); err == nil {
			continue
		}
		// Combined equation failed (a bad claim, or a non-invertible
		// operand): fall back to individual checks so honest claims in
		// the batch are never rejected.
		for _, cl := range part {
			if err := cl.Verify(); err != nil {
				return err
			}
		}
		// Every claim verified individually: the combined check failed
		// only because an operand was outside Z_n^* (batch inversion
		// refuses); the individual verdicts stand.
	}
	return nil
}

// rlcCheck evaluates the combined equation for claims sharing a modulus.
func rlcCheck(rnd io.Reader, part []*Claim) error {
	pub := part[0].Pub
	mo, err := mathx.NewModulus(pub.N)
	if err != nil {
		return err
	}
	// One batch inversion for every T and every HProd that did not arrive
	// with a cached inverse.
	hInvs := make([]*big.Int, len(part))
	toInvert := make([]*big.Int, 0, 2*len(part))
	for _, cl := range part {
		if cl.HInv == nil {
			toInvert = append(toInvert, cl.HProd)
		}
		toInvert = append(toInvert, cl.T)
	}
	invs, err := mo.BatchInverse(toInvert)
	if err != nil {
		return err
	}
	tInvs := make([]*big.Int, len(part))
	for j, cl := range part {
		if cl.HInv == nil {
			hInvs[j] = invs[0]
			invs = invs[1:]
		} else {
			hInvs[j] = cl.HInv
		}
		tInvs[j] = invs[0]
		invs = invs[1:]
	}
	rhoBound := new(big.Int).Lsh(mathx.One, RLCBits)
	bases := make([]mathx.Elem, 0, 3*len(part))
	exps := make([]*big.Int, 0, 3*len(part))
	for j, cl := range part {
		rho, err := mathx.RandInt(rnd, rhoBound)
		if err != nil {
			return err
		}
		rho.SetBit(rho, 0, 1) // odd: order-2 defects cannot vanish
		bases = append(bases, mo.ToMont(cl.SProd), mo.ToMont(hInvs[j]), mo.ToMont(tInvs[j]))
		exps = append(exps,
			new(big.Int).Mul(pub.E, rho),
			new(big.Int).Mul(cl.C, rho),
			rho)
	}
	acc, err := mo.MultiExpElem(bases, exps)
	if err != nil {
		return err
	}
	if !mo.IsOne(acc) {
		return errors.New("gq: combined claim verification failed")
	}
	return nil
}

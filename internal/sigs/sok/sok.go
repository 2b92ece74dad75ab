// Package sok implements the Sakai-Ohgishi-Kasahara identity-based
// signature scheme over the supersingular pairing of internal/pairing.
// It is the paper's "BD with SOK" baseline: ID-based like GQ, but each
// verification costs three pairing evaluations plus a MapToPoint, which is
// what makes it lose the energy comparison.
//
// Scheme (symmetric pairing ê : G × G → GT, generator G, master key s,
// P_pub = s·G):
//
//	Extract: Q_ID = H1(ID) ∈ G (MapToPoint), D_ID = s·Q_ID.
//	Sign:    r ∈R Z_q, U = r·G, h = H2(ID, m, U) ∈ Z_q,
//	         V = D_ID + (r·h)·G.  Signature σ = (U, V).
//	Verify:  ê(V, G) == ê(Q_ID, P_pub) · ê(G, U)^h.
//
// Correctness: ê(V,G) = ê(s·Q_ID,G)·ê(rh·G,G)
//
//	= ê(Q_ID,P_pub)·ê(G,r·G)^h = ê(Q_ID,P_pub)·ê(G,U)^h.
package sok

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/ec"
	"idgka/internal/hashx"
	"idgka/internal/mathx"
	"idgka/internal/pairing"
)

// SystemParams carries the public SOK parameters shared by all users.
type SystemParams struct {
	Group *pairing.Group
	PPub  ec.Point // master public key s·G
}

// PKG is the SOK private key generator holding the master secret.
type PKG struct {
	Params SystemParams
	s      mathx.Scalar // master secret, below the group order
}

// NewPKG draws a master key pair over the group.
func NewPKG(r io.Reader, g *pairing.Group) (*PKG, error) {
	s, err := mathx.DrawScalar(r, g.N)
	if err != nil {
		return nil, fmt.Errorf("sok: master key: %w", err)
	}
	return &PKG{
		Params: SystemParams{Group: g, PPub: g.ScalarBaseMult(s.BigVarTime())},
		s:      s,
	}, nil
}

// PrivateKey is the extracted identity key D_ID = s·H1(ID).
type PrivateKey struct {
	ID string
	// d is D_ID, a curve point rather than a Scalar: unexported and
	// behind a pointer, so fmt shows none of its coordinates.
	d      *ec.Point
	Params SystemParams
}

// Extract derives the private key for an identity (one MapToPoint plus one
// scalar multiplication; PKG-only).
func (p *PKG) Extract(id string) (*PrivateKey, error) {
	if id == "" {
		return nil, errors.New("sok: empty identity")
	}
	q, err := p.Params.Group.HashToGroup(id)
	if err != nil {
		return nil, err
	}
	d := p.Params.Group.ScalarMult(q, p.s.BigVarTime())
	return &PrivateKey{ID: id, d: &d, Params: p.Params}, nil
}

// Signature is the SOK pair (U, V) of group elements.
type Signature struct {
	U, V ec.Point
}

// Sign produces σ = (U, V) on msg.
func (sk *PrivateKey) Sign(rnd io.Reader, msg []byte) (*Signature, error) {
	g := sk.Params.Group
	r, err := g.RandScalar(rnd)
	if err != nil {
		return nil, err
	}
	u := g.ScalarBaseMult(r)
	h := challenge(g, sk.ID, msg, u)
	rh := new(big.Int).Mul(r, h)
	rh.Mod(rh, g.N)
	v := g.Add(*sk.d, g.ScalarBaseMult(rh))
	return &Signature{U: u, V: v}, nil
}

// Verify checks σ against the identity: three pairings plus one MapToPoint.
func Verify(p SystemParams, id string, msg []byte, sig *Signature) error {
	if sig == nil {
		return errors.New("sok: nil signature")
	}
	g := p.Group
	if err := g.CheckSubgroup(sig.U); err != nil {
		return fmt.Errorf("sok: U invalid: %w", err)
	}
	if err := g.CheckSubgroup(sig.V); err != nil {
		return fmt.Errorf("sok: V invalid: %w", err)
	}
	qID, err := g.HashToGroup(id) // MapToPoint
	if err != nil {
		return err
	}
	h := challenge(g, id, msg, sig.U)
	lhs, err := g.Pair(sig.V, g.Generator())
	if err != nil {
		return err
	}
	e1, err := g.Pair(qID, p.PPub)
	if err != nil {
		return err
	}
	e2, err := g.Pair(g.Generator(), sig.U)
	if err != nil {
		return err
	}
	rhs := g.MulGT(e1, g.Exp(e2, h))
	if !lhs.Equal(rhs) {
		return errors.New("sok: verification failed")
	}
	return nil
}

// challenge computes h = H2(ID, m, U) ∈ Z_q.
func challenge(g *pairing.Group, id string, msg []byte, u ec.Point) *big.Int {
	return hashx.ScalarDigest(hashx.TagSOKDigest, g.N, []byte(id), msg, g.Marshal(u))
}

// Encode serialises the signature as U || V (uncompressed points).
func (s *Signature) Encode(g *pairing.Group) []byte {
	u := g.Marshal(s.U)
	v := g.Marshal(s.V)
	return append(u, v...)
}

// Decode parses a signature produced by Encode.
func Decode(g *pairing.Group, data []byte) (*Signature, error) {
	bl := 2 * ((g.P.BitLen() + 7) / 8)
	if len(data) != 2*bl {
		return nil, fmt.Errorf("sok: bad signature length %d", len(data))
	}
	u, err := g.Unmarshal(data[:bl])
	if err != nil {
		return nil, err
	}
	v, err := g.Unmarshal(data[bl:])
	if err != nil {
		return nil, err
	}
	return &Signature{U: u, V: v}, nil
}

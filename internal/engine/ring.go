package engine

import (
	"fmt"
	"math/big"

	"idgka/internal/bdkey"
	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// ringState is the keying material a member accumulates while (re)keying a
// Burmester-Desmedt ring: its own exponent and GQ commitment plus the z/t
// and X/s views of every ring member. It is shared by the initial flow and
// the Leave/Partition flow, whose round-2 and key-computation phases are
// mathematically identical.
type ringState struct {
	roster []string
	pos    map[string]int
	self   int

	r, tau *big.Int
	z, t   map[string]*big.Int
	x, s   map[string]*big.Int

	bigZ, c *big.Int

	// edge holds z_prev^r, as an element of the Schnorr group's
	// Montgomery domain: round 2 computes X from its two directed edge
	// powers, and equation (3)'s dominant z_prev^{n·r} term then
	// collapses to edge^n (~log2 n squarings) in finish.
	edge mathx.Elem
}

func newRingState(roster []string, self string) (*ringState, error) {
	rs := &ringState{
		roster: append([]string(nil), roster...),
		pos:    make(map[string]int, len(roster)),
		z:      map[string]*big.Int{},
		t:      map[string]*big.Int{},
		x:      map[string]*big.Int{},
		s:      map[string]*big.Int{},
		self:   -1,
	}
	for i, id := range roster {
		rs.pos[id] = i
		if id == self {
			rs.self = i
		}
	}
	if rs.self < 0 {
		return nil, fmt.Errorf("engine: %s not in ring %v", self, roster)
	}
	return rs, nil
}

func (rs *ringState) n() int { return len(rs.roster) }

func (rs *ringState) inRoster(id string) bool {
	_, ok := rs.pos[id]
	return ok
}

// round1Complete reports whether a current z and t is on file for every
// ring member.
func (rs *ringState) round1Complete() bool {
	for _, id := range rs.roster {
		if rs.z[id] == nil || rs.t[id] == nil {
			return false
		}
	}
	return true
}

// recordRound2 parses and records one peer's round-2 broadcast
// U_i ‖ X_i ‖ s_i.
func (rs *ringState) recordRound2(msg *netsim.Message) error {
	r := wire.NewReader(msg.Payload)
	id := r.String()
	x := r.Big()
	s := r.Big()
	if err := r.Close(); err != nil {
		return Retryable(fmt.Errorf("round2 from %s: %w", msg.From, err))
	}
	if id != msg.From || !rs.inRoster(id) {
		return Retryable(fmt.Errorf("round2 bad sender %q/%q", id, msg.From))
	}
	rs.x[id] = x
	rs.s[id] = s
	return nil
}

// round2Payload computes the member's X value, the common challenge
// c = H(T, Z) and the GQ response s_i, returning the encoded broadcast
// m'_i = U_i ‖ X_i ‖ s_i.
func (rs *ringState) round2Payload(mc *Machine) ([]byte, error) {
	sg := mc.cfg.Set.Schnorr
	n := rs.n()
	zNext := rs.z[rs.roster[(rs.self+1)%n]]
	zPrev := rs.z[rs.roster[(rs.self-1+n)%n]]
	// Edge-carrying restructure: raise the two directed DH edges
	// separately and keep b = z_prev^r for the key computation, where it
	// collapses equation (3)'s z_prev^{n·r} to b^n. X is bit-identical to
	// bdkey.XValue's, the session's total exponentiation count is
	// unchanged (the saving lands in finish), and the meter charges the
	// same logical operation. Both powers run on the Montgomery engine;
	// b stays in its domain for finish.
	mo := sg.Mont()
	a := mo.ExpElem(mo.ToMont(zNext), rs.r)
	rs.edge = mo.ExpElem(mo.ToMont(zPrev), rs.r)
	x, err := bdkey.XFromPowers(mo.FromMont(a), mo.FromMont(rs.edge), sg.P)
	if err != nil {
		return nil, err
	}
	mc.m.Exp(1)

	// Z = Π z_i mod p, T = Π t_i mod n, c = H(T, Z), both products as
	// division-free Montgomery chains.
	zs := make([]*big.Int, 0, n)
	ts := make([]*big.Int, 0, n)
	for _, id := range rs.roster {
		zs = append(zs, rs.z[id])
		ts = append(ts, rs.t[id])
	}
	rs.bigZ = mo.Product(zs)
	bigT := mc.cfg.Set.RSA.Mont().Product(ts)
	rs.c = gq.GroupChallenge(bigT, rs.bigZ)
	s := mc.sk.Respond(rs.tau, rs.c)
	mc.m.SignGen(meter.SchemeGQ, 1)

	rs.x[mc.id] = x
	rs.s[mc.id] = s
	return wire.NewBuffer().PutString(mc.id).PutBig(x).PutBig(s).Bytes(), nil
}

// finish performs the Authentication and Key Computation phase: one batch
// verification of all GQ responses (equation 2), the Lemma-1 product check
// on the X values, and the BD key computation (equation 3), returning the
// committed group view. The checks run in that order and stop at the
// first failure, so a failed equation (2) or Lemma 1 never charges the
// key computation's Exp.
func (rs *ringState) finish(mc *Machine) (*Group, error) {
	n := rs.n()
	responses := make([]*big.Int, 0, n)
	for _, id := range rs.roster {
		responses = append(responses, rs.s[id])
	}

	// Equation (2): c == H((Πs_i)^e · (ΠH(U_i))^{-c}, Z), through the
	// roster's cached verifier, so no identity is re-hashed and the
	// identity product is not re-inverted per round.
	gv, err := mc.groupVerifier(rs.roster)
	if err == nil {
		err = gv.BatchVerify(responses, rs.c, rs.bigZ)
	}
	mc.m.SignVer(meter.SchemeGQ, 1)
	if err != nil {
		return nil, Retryable(err)
	}

	// Lemma 1 (Π X_i ≡ 1 mod p) and equation (3) both run on the X
	// values' Montgomery images, converted once. In equation (3), edge^n
	// replaces the full-width z_prev^{n·r} exponentiation, and the
	// descending-exponent chain telescopes into prefix products.
	mo := mc.cfg.Set.Schnorr.Mont()
	xs := make([]mathx.Elem, n)
	for i, id := range rs.roster {
		xs[i] = mo.ToMont(rs.x[id])
	}
	if err := bdkey.CheckLemma1Mont(mo, xs); err != nil {
		return nil, Retryable(err)
	}
	key, err := bdkey.KeyFromEdgeMont(mo, rs.self, rs.edge, xs)
	if err != nil {
		return nil, err
	}
	mc.m.Exp(1)

	g := NewGroup(rs.roster)
	g.R = rs.r
	g.Tau = rs.tau
	for id, z := range rs.z {
		g.Z[id] = z
	}
	for id, t := range rs.t {
		g.T[id] = t
	}
	g.Key = key
	return g, nil
}

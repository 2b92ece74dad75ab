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

	bigZ, bigT, c *big.Int

	// edge holds z_prev^r, as an element of the Schnorr group's
	// Montgomery domain, when the accelerated round 2 computed X from its
	// two directed edge powers: equation (3)'s dominant z_prev^{n·r} term
	// then collapses to edge^n (~log2 n squarings) in finish.
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
	var x *big.Int
	var err error
	if mc.cfg.Accel.Precompute {
		// Edge-carrying restructure: raise the two directed DH edges
		// separately and keep b = z_prev^r for the key computation, where
		// it collapses equation (3)'s z_prev^{n·r} to b^n. X is
		// bit-identical to XValue's, the session's total exponentiation
		// count is unchanged (the saving lands in finish), and the meter
		// charges the same logical operation. Both powers run on the
		// Montgomery engine; b stays in its domain for finish.
		mo := sg.Mont()
		a := mo.ExpElem(mo.ToMont(zNext), rs.r)
		b := mo.ExpElem(mo.ToMont(zPrev), rs.r)
		x, err = bdkey.XFromPowers(mo.FromMont(a), mo.FromMont(b), sg.P)
		rs.edge = b
	} else {
		x, err = bdkey.XValue(zNext, zPrev, rs.r, sg.P)
	}
	if err != nil {
		return nil, err
	}
	mc.m.Exp(1)

	// Z = Π z_i mod p, T = Π t_i mod n, c = H(T, Z). The two products
	// are division-free Montgomery chains over independent per-peer
	// contributions, so the worker pool computes them concurrently; the
	// sequential path is the exact legacy order.
	zs := make([]*big.Int, 0, n)
	ts := make([]*big.Int, 0, n)
	for _, id := range rs.roster {
		zs = append(zs, rs.z[id])
		ts = append(ts, rs.t[id])
	}
	_ = mc.pool.Run(
		func() error {
			rs.bigZ = sg.Mont().Product(zs)
			return nil
		},
		func() error {
			rs.bigT = mc.cfg.Set.RSA.Mont().Product(ts)
			return nil
		},
	)
	rs.c = gq.GroupChallenge(rs.bigT, rs.bigZ)
	s := mc.sk.Respond(rs.tau, rs.c)
	mc.m.SignGen(meter.SchemeGQ, 1)

	rs.x[mc.id] = x
	rs.s[mc.id] = s
	return wire.NewBuffer().PutString(mc.id).PutBig(x).PutBig(s).Bytes(), nil
}

// submitClaim folds the round's responses into an algebraic batch-
// verification claim against the roster's cached verifier and hands it
// to the host verifier, blocking until the host settles the batch it
// lands in.
func (rs *ringState) submitClaim(gv *gq.GroupVerifier, bv BatchVerifier, responses []*big.Int) error {
	claim, err := gv.NewClaim(responses, rs.c, rs.bigT)
	if err != nil {
		return err
	}
	return bv.VerifyClaim(claim)
}

// finish performs the Authentication and Key Computation phase: one batch
// verification of all GQ responses (equation 2), the Lemma-1 product check
// on the X values, and the BD key computation (equation 3), returning the
// committed group view.
//
// The three checks consume disjoint inputs (s values; X values; z/X
// values), so with an active worker pool they run as concurrent tasks.
// Sequentially the tasks run in the exact legacy order with fail-fast
// semantics, keeping the lockstep drivers' operation accounting
// bit-identical; in parallel mode a failing check no longer
// short-circuits its siblings, so the failure path may charge the
// key-computation Exp that the sequential path skips (values and
// verdicts are unaffected).
func (rs *ringState) finish(mc *Machine) (*Group, error) {
	sg := mc.cfg.Set.Schnorr
	n := rs.n()

	responses := make([]*big.Int, 0, n)
	for _, id := range rs.roster {
		responses = append(responses, rs.s[id])
	}
	xsOrdered := make([]*big.Int, n)
	for i, id := range rs.roster {
		xsOrdered[i] = rs.x[id]
	}
	zPrev := rs.z[rs.roster[(rs.self-1+n)%n]]

	// With the edge power carried over from the accelerated round 2, the
	// X values convert into the Montgomery domain once, and Lemma 1 and
	// equation (3) both run on those images.
	var mo *mathx.Modulus
	var xsMont []mathx.Elem
	if mc.cfg.Accel.Precompute && rs.edge != nil {
		mo = sg.Mont()
		xsMont = make([]mathx.Elem, n)
		for i, x := range xsOrdered {
			xsMont[i] = mo.ToMont(x)
		}
	}

	var key *big.Int
	err := mc.pool.Run(
		// Equation (2): c == H((Πs_i)^e · (ΠH(U_i))^{-c}, Z), through the
		// roster's cached verifier, so no identity is re-hashed and the
		// identity product is not re-inverted per round. With a host
		// batch verifier, the check is submitted as an algebraic claim
		// (equivalent because this member derived c = H(T, Z) itself) and
		// settles together with other groups' claims; the verdict and the
		// meter charge are the same either way.
		func() error {
			gv, err := mc.claimBuilder(rs.roster)
			if err == nil {
				if bv := mc.cfg.Accel.BatchVerifier; bv != nil {
					err = rs.submitClaim(gv, bv, responses)
				} else {
					err = gv.BatchVerify(responses, rs.c, rs.bigZ)
				}
			}
			mc.m.SignVer(meter.SchemeGQ, 1)
			if err != nil {
				return Retryable(err)
			}
			return nil
		},
		// Lemma 1: Π X_i ≡ 1 (mod p).
		func() error {
			var err error
			if mo != nil {
				err = bdkey.CheckLemma1Mont(mo, xsMont)
			} else {
				err = bdkey.CheckLemma1(xsOrdered, sg.P)
			}
			if err != nil {
				return Retryable(err)
			}
			return nil
		},
		// Equation (3): the shared key. On the Montgomery path edge^n
		// replaces the full-width z_prev^{n·r} exponentiation, and the
		// descending-exponent chain telescopes into prefix products.
		func() error {
			var err error
			switch {
			case mo != nil:
				key, err = bdkey.KeyFromEdgeMont(mo, rs.self, rs.edge, xsMont)
			case mc.cfg.Accel.Precompute:
				key, err = bdkey.KeyMultiExp(rs.self, rs.r, zPrev, xsOrdered, sg.P)
			default:
				key, err = bdkey.Key(rs.self, rs.r, zPrev, xsOrdered, sg.P)
			}
			if err != nil {
				return err
			}
			mc.m.Exp(1)
			return nil
		},
	)
	if err != nil {
		return nil, err
	}

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

package engine

import (
	"errors"
	"fmt"
	"math/big"

	"idgka/internal/bdkey"
	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// ringFlow runs one member's part in a two-round ring keying: the
// authenticated GKA of Section 4, and Leave/Partition (Section 7,
// equations 10-13), which is the same protocol over the contracted ring.
// The two differ only in who broadcasts in round 1 and whose exponent is
// fresh. Round 1: every sender broadcasts U_j ‖ z_j ‖ t_j, refreshers with
// a fresh exponent z_j, strict-mode non-refreshers with only a fresh
// commitment t_j. Round 2: every member except the controller broadcasts
// m'_i = U_i ‖ X_i ‖ s_i as soon as its round-1 view is complete; the
// controller (U_1, a trusted node) broadcasts last, per the paper — its
// machine withholds its round-2 message until it has received everyone
// else's.
type ringFlow struct {
	mc *Machine
	// base is the ring being contracted, snapshotted at Start; its views
	// seed the silent members' z, t and the member's own r, τ. It is nil
	// for the initial GKA, where every member refreshes.
	base *Group
	ring *ringState
	// r1, r2 label the two rounds: MsgRound1/MsgRound2 for the initial
	// GKA, MsgLeave1/MsgLeave2 for Leave/Partition.
	r1, r2 string

	// refreshers draw fresh exponents; senders is the set of expected
	// round-1 broadcasters (refreshers, plus every survivor in strict
	// mode); gotR1 marks the senders heard from.
	refreshers map[string]bool
	senders    map[string]bool
	gotR1      map[string]bool

	started   bool
	emittedR2 bool
}

// StartInitial begins the two-round authenticated group key agreement for
// the given ring (roster order = ring order; roster[0] is the trusted
// controller U_1). The machine's member must appear in the roster.
func (mc *Machine) StartInitial(sid string, roster []string) ([]Outbound, []Event, error) {
	if len(roster) < 2 {
		return nil, nil, errors.New("engine: initial GKA needs at least 2 members")
	}
	all := setOf(roster)
	return mc.startRing(sid, &ringFlow{r1: MsgRound1, r2: MsgRound2, refreshers: all, senders: all}, roster)
}

// startRing completes a ringFlow over roster and starts it.
func (mc *Machine) startRing(sid string, f *ringFlow, roster []string) ([]Outbound, []Event, error) {
	rs, err := newRingState(roster, mc.id)
	if err != nil {
		return nil, nil, err
	}
	f.mc, f.ring, f.gotR1 = mc, rs, map[string]bool{}
	return mc.start(sid, f)
}

// setOf returns the set of ids listed in any of lists.
func setOf(lists ...[]string) map[string]bool {
	set := map[string]bool{}
	for _, ids := range lists {
		for _, id := range ids {
			set[id] = true
		}
	}
	return set
}

// begin seeds the ring views from the base group, draws fresh material
// when this member refreshes, and returns the round-1 broadcast
// U_j ‖ z_j ‖ t_j when this member is a sender (z_j empty when it does
// not refresh).
func (f *ringFlow) begin() ([]Outbound, error) {
	mc := f.mc
	if g := f.base; g != nil {
		// Start from the session's stored views; fresh own values
		// overwrite.
		for _, id := range f.ring.roster {
			if z, ok := g.Z[id]; ok {
				f.ring.z[id] = z
			}
			if t, ok := g.T[id]; ok {
				f.ring.t[id] = t
			}
		}
		f.ring.r = g.R
		f.ring.tau = g.Tau
	}
	if !f.senders[mc.id] {
		// Paper behaviour: even members stay silent and will reuse their
		// stored commitment.
		return nil, nil
	}
	var z *big.Int
	if f.refreshers[mc.id] {
		var err error
		if f.ring.r, z, err = mc.freshExp(); err != nil {
			return nil, fmt.Errorf("engine: round1: %w", err)
		}
		f.ring.z[mc.id] = z
	}
	// Senders always draw a fresh GQ commitment: refreshers by protocol,
	// strict-mode non-refreshers by design (see
	// docs/ARCHITECTURE.md#deviations).
	tau, t, err := gq.Commitment(mc.cfg.rand(), gq.ParamsFrom(mc.cfg.Set.RSA))
	if err != nil {
		return nil, err
	}
	f.ring.tau = tau
	f.ring.t[mc.id] = t
	payload := wire.NewBuffer().PutString(mc.id).PutBig(z).PutBig(t).Bytes()
	return []Outbound{{Type: f.r1, Payload: payload}}, nil
}

func (f *ringFlow) deliver(msg *netsim.Message) error {
	switch msg.Type {
	case f.r1:
		return f.recordRound1(msg)
	case f.r2:
		return f.ring.recordRound2(msg)
	default:
		return nil // stray traffic of another protocol phase
	}
}

// recordRound1 ingests one sender's round-1 broadcast U_j ‖ z_j ‖ t_j: a
// refresher's z_j must lie in (0, p) and a non-refresher must send none;
// every sender's t_j must lie in (0, N).
func (f *ringFlow) recordRound1(msg *netsim.Message) error {
	var z, t *big.Int
	if err := readPeer(msg, func(r *wire.Reader) { z, t = r.Big(), r.Big() }); err != nil {
		return err
	}
	id := msg.From
	if !f.senders[id] || !f.ring.inRoster(id) {
		return Retryable(fmt.Errorf("%s from unexpected sender %q", f.r1, id))
	}
	if f.refreshers[id] {
		if err := f.mc.checkZ(msg, z); err != nil {
			return err
		}
		f.ring.z[id] = z
	} else if z.Sign() != 0 {
		return Retryable(fmt.Errorf("%s z from non-refresher %s unexpected", f.r1, id))
	}
	if t.Sign() <= 0 || t.Cmp(f.mc.cfg.Set.RSA.N) >= 0 {
		return Retryable(fmt.Errorf("%s t from %s out of range", f.r1, id))
	}
	f.ring.t[id] = t
	f.gotR1[id] = true
	return nil
}

// round1Done reports whether every expected round-1 broadcast (from peers)
// has arrived.
func (f *ringFlow) round1Done() bool {
	for id := range f.senders {
		if id != f.mc.id && !f.gotR1[id] {
			return false
		}
	}
	return true
}

func (f *ringFlow) advance() ([]Outbound, []Event, error) {
	var outs []Outbound
	if !f.started {
		o, err := f.begin()
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, o...)
		f.started = true
	}
	if !f.emittedR2 && f.round1Done() {
		// Every ring member must now have a current z and t on file.
		for _, id := range f.ring.roster {
			if f.ring.z[id] == nil || f.ring.t[id] == nil {
				return outs, nil, Retryable(fmt.Errorf("engine: %s lacks round-1 values of %s", f.mc.id, id))
			}
		}
		// The controller broadcasts its round-2 message only after every
		// other member's has arrived (len(x) counts peers until our own
		// round2Payload records ours).
		if f.ring.self != 0 || len(f.ring.x) == f.ring.n()-1 {
			payload, err := f.ring.round2Payload(f.mc)
			if err != nil {
				return outs, nil, err
			}
			outs = append(outs, Outbound{Type: f.r2, Payload: payload})
			f.emittedR2 = true
		}
	}
	if f.emittedR2 && len(f.ring.x) == f.ring.n() {
		g, err := f.ring.finish(f.mc)
		if err != nil {
			return outs, nil, err
		}
		return outs, []Event{{Kind: EventEstablished, Group: g}}, nil
	}
	return outs, nil, nil
}

// ringState is the keying material a member accumulates while (re)keying a
// Burmester-Desmedt ring: its own exponent and GQ commitment plus the z/t
// and X/s views of every ring member. ringFlow owns it; its round-2 and
// key-computation phases are the same for the initial GKA and
// Leave/Partition.
type ringState struct {
	roster []string
	pos    map[string]int
	self   int

	r, tau *big.Int
	z, t   map[string]*big.Int
	x, s   map[string]*big.Int

	bigZ, c *big.Int

	// edge holds z_prev^r, as an element of the Schnorr group's
	// Montgomery domain: round 2 raises it together with X, and equation
	// (3)'s dominant z_prev^{n·r} term then collapses to edge^n (~log2 n
	// squarings) in finish.
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

// recordRound2 parses and records one peer's round-2 broadcast
// U_i ‖ X_i ‖ s_i.
func (rs *ringState) recordRound2(msg *netsim.Message) error {
	var x, s *big.Int
	if err := readPeer(msg, func(r *wire.Reader) { x, s = r.Big(), r.Big() }); err != nil {
		return err
	}
	if !rs.inRoster(msg.From) {
		return Retryable(fmt.Errorf("%s from unexpected sender %q", msg.Type, msg.From))
	}
	rs.x[msg.From] = x
	rs.s[msg.From] = s
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
	// Edge-carrying restructure: X = (z_next·z_prev^{-1})^r and the edge
	// b = z_prev^r are two powers of one exponent, raised together in one
	// ExpPair call. b stays in the Montgomery domain for finish, where it
	// collapses equation (3)'s z_prev^{n·r} to b^n. The inversion is of
	// the public z_prev, not of a secret power. X is bit-identical to
	// bdkey.XValue's, the session's total exponentiation count is
	// unchanged (the saving lands in finish), and the meter charges the
	// same logical operation.
	mo := sg.Mont()
	inv, err := mathx.ModInverse(zPrev, sg.P)
	if err != nil {
		return nil, fmt.Errorf("engine: z_prev not invertible: %w", err)
	}
	xm, edge := mo.ExpPair(mo.Mul(mo.ToMont(zNext), mo.ToMont(inv)), mo.ToMont(zPrev), rs.r)
	rs.edge = edge
	x := mo.FromMont(xm)
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
	// roster's process-shared verifier, so no identity is re-hashed, the
	// identity product is not re-inverted per round, and a recurring
	// roster walks a fixed-base table of the inverse.
	gv, err := gq.SharedVerifier(gq.ParamsFrom(mc.cfg.Set.RSA), rs.roster)
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

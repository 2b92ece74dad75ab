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

	// By ring position: refresh marks the members that draw fresh
	// exponents and sends the expected round-1 broadcasters (the
	// refreshers, plus every survivor in strict mode). waiting counts the
	// peers among the senders not heard from yet; the machine delivers
	// each sender's round 1 once.
	refresh, sends []bool
	waiting        int

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
	return mc.startRing(sid, &ringFlow{r1: MsgRound1, r2: MsgRound2}, roster, roster, true)
}

// startRing completes a ringFlow over roster, in which the members listed
// in refresh draw fresh exponents and, when everySends is set, every
// member broadcasts in round 1 (otherwise only the refreshers do), and
// starts it.
func (mc *Machine) startRing(sid string, f *ringFlow, roster, refresh []string, everySends bool) ([]Outbound, []Event, error) {
	rs, err := newRingState(mc, roster)
	if err != nil {
		return nil, nil, err
	}
	n := rs.n()
	marks := make([]bool, 2*n)
	f.refresh, f.sends = marks[:n], marks[n:]
	for _, id := range refresh {
		i, ok := rs.pos[id]
		if !ok {
			return nil, nil, fmt.Errorf("engine: refresher %q not in ring %v", id, roster)
		}
		f.refresh[i] = true
	}
	for i := range f.sends {
		f.sends[i] = everySends || f.refresh[i]
		if f.sends[i] && i != rs.self {
			f.waiting++
		}
	}
	f.mc, f.ring = mc, rs
	// Every peer sends one message per round: the duplicate filter holds
	// at most 2n pairs.
	return mc.start(sid, f, 2*n)
}

// begin seeds the ring views from the base group, draws fresh material
// when this member refreshes, and returns the round-1 broadcast
// U_j ‖ z_j ‖ t_j when this member is a sender (z_j empty when it does
// not refresh).
func (f *ringFlow) begin() ([]Outbound, error) {
	mc, rs := f.mc, f.ring
	if g := f.base; g != nil {
		// Start from the session's stored views, each survivor's slots
		// copied to its contracted position; fresh own values overwrite.
		for i, id := range rs.roster {
			j := g.Position(id)
			rs.zs.Copy(i, g.zs, j)
			rs.ts.Copy(i, g.ts, j)
		}
		rs.r = g.R
		rs.tau = g.Tau
	}
	self := rs.self
	if !f.sends[self] {
		// Paper behaviour: even members stay silent and will reuse their
		// stored commitment.
		return nil, nil
	}
	var z *big.Int
	if f.refresh[self] {
		var err error
		if rs.r, z, err = mc.freshExp(); err != nil {
			return nil, fmt.Errorf("engine: round1: %w", err)
		}
		rs.zs.Load(self, z)
	}
	// Senders always draw a fresh GQ commitment: refreshers by protocol,
	// strict-mode non-refreshers by design (see
	// docs/ARCHITECTURE.md#deviations).
	tau, t, err := gq.Commitment(mc.cfg.rand(), mc.cfg.Set.RSA)
	if err != nil {
		return nil, err
	}
	rs.tau = tau
	rs.ts.Load(self, t)
	payload := wire.NewBuffer().PutString(mc.id).PutBig(z).PutBig(t).Bytes()
	return []Outbound{{Type: f.r1, Payload: payload}}, nil
}

func (f *ringFlow) deliver(msg netsim.Message) error {
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
// every sender's t_j must lie in (0, N). Both decode straight into the
// sender's slot. The member's own broadcast, echoed back, is ignored.
func (f *ringFlow) recordRound1(msg netsim.Message) error {
	rs := f.ring
	i, ok := rs.pos[msg.From]
	if !ok || !f.sends[i] {
		return Retryable(fmt.Errorf("%s from unexpected sender %q", f.r1, msg.From))
	}
	if i == rs.self {
		return nil
	}
	r, err := openPeer(msg)
	if err != nil {
		return err
	}
	z, t := r.Bytes(), r.Bytes()
	if err := r.close(); err != nil {
		return err
	}
	if f.refresh[i] {
		if !rs.zs.LoadBytes(i, z) {
			return Retryable(fmt.Errorf("%s z from %s out of range", f.r1, msg.From))
		}
	} else if !isZero(z) {
		return Retryable(fmt.Errorf("%s z from non-refresher %s unexpected", f.r1, msg.From))
	}
	if !rs.ts.LoadBytes(i, t) {
		return Retryable(fmt.Errorf("%s t from %s out of range", f.r1, msg.From))
	}
	f.waiting--
	return nil
}

func (f *ringFlow) advance() ([]Outbound, []Event, error) {
	var outs []Outbound
	rs := f.ring
	if !f.started {
		o, err := f.begin()
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, o...)
		f.started = true
	}
	if !f.emittedR2 && f.waiting == 0 {
		// Every ring member must now have a current z and t on file.
		for i, id := range rs.roster {
			if !rs.zs.InRange(i) || !rs.ts.InRange(i) {
				return outs, nil, Retryable(fmt.Errorf("engine: %s lacks round-1 values of %s", f.mc.id, id))
			}
		}
		// The controller broadcasts its round-2 message only after every
		// other member's has arrived.
		if rs.self != 0 || rs.peersX == rs.n()-1 {
			payload, err := rs.round2Payload(f.mc)
			if err != nil {
				return outs, nil, err
			}
			outs = append(outs, Outbound{Type: f.r2, Payload: payload})
			f.emittedR2 = true
		}
	}
	if f.emittedR2 && rs.peersX == rs.n()-1 {
		g, err := rs.finish(f.mc)
		if err != nil {
			return outs, nil, err
		}
		return outs, []Event{{Kind: EventEstablished, Group: g}}, nil
	}
	return outs, nil, nil
}

// ringState is the keying material a member accumulates while (re)keying a
// Burmester-Desmedt ring: its own exponent and GQ commitment plus the z/t
// and X/s values of every ring member, all indexed by ring position.
// ringFlow owns it; its round-2 and key-computation phases are the same
// for the initial GKA and Leave/Partition.
//
// Every value lives in a per-position slot of zs, ts, xs and ss, sized
// once at start: peers' values decode straight into their slots, round
// 2's edge powers take their bases from them, and the Z and T products,
// the eq. 2 response product and the X chain of Lemma 1 and equation (3)
// all run over them. A slot not (yet) known reads as empty. The
// committed group takes over the z and t slots as they are.
type ringState struct {
	roster []string
	pos    map[string]int
	self   int
	p, nn  *mathx.Modulus // the Schnorr group's p and the GQ modulus N

	r, tau mathx.Scalar
	// zs and xs hold p's values, ts and ss N's.
	zs, ts, xs, ss mathx.Packed
	// peersX counts the peers whose round-2 X and s are recorded.
	peersX int

	bigZ, c *big.Int

	// edge holds the forward edge z_next^r = g^{r·r_next}, as an element
	// of the Schnorr group's Montgomery domain: round 2 raises it on the
	// way to X, and finish computes the key from the next member's view,
	// whose dominant z^{n·r} term is then edge^n (~log2 n squarings).
	edge mathx.Elem
}

func newRingState(mc *Machine, roster []string) (*ringState, error) {
	n := len(roster)
	rs := &ringState{
		roster: append([]string(nil), roster...),
		pos:    make(map[string]int, n),
		self:   -1,
		p:      mc.cfg.Set.Schnorr.Mont(),
		nn:     mc.cfg.Set.RSA.Mont(),
	}
	for i, id := range roster {
		rs.pos[id] = i
		if id == mc.id {
			rs.self = i
		}
	}
	if rs.self < 0 {
		return nil, fmt.Errorf("engine: %s not in ring %v", mc.id, roster)
	}
	rs.zs, rs.xs = rs.p.NewPacked(n), rs.p.NewPacked(n)
	rs.ts, rs.ss = rs.nn.NewPacked(n), rs.nn.NewPacked(n)
	return rs, nil
}

func (rs *ringState) n() int { return len(rs.roster) }

// recordRound2 decodes one peer's round-2 broadcast U_i ‖ X_i ‖ s_i into
// its slots: X_i must lie in (0, p) and s_i in (0, N). The member's own
// broadcast, echoed back, is ignored.
func (rs *ringState) recordRound2(msg netsim.Message) error {
	i, ok := rs.pos[msg.From]
	if !ok {
		return Retryable(fmt.Errorf("%s from unexpected sender %q", msg.Type, msg.From))
	}
	if i == rs.self {
		return nil
	}
	r, err := openPeer(msg)
	if err != nil {
		return err
	}
	x, s := r.Bytes(), r.Bytes()
	if err := r.close(); err != nil {
		return err
	}
	if !rs.xs.LoadBytes(i, x) {
		return Retryable(fmt.Errorf("%s X from %s out of range", msg.Type, msg.From))
	}
	if !rs.ss.LoadBytes(i, s) {
		return Retryable(fmt.Errorf("%s s from %s out of range", msg.Type, msg.From))
	}
	rs.peersX++
	return nil
}

// round2Payload computes the member's X value, the common challenge
// c = H(T, Z) and the GQ response s_i, returning the encoded broadcast
// m'_i = U_i ‖ X_i ‖ s_i.
func (rs *ringState) round2Payload(mc *Machine) ([]byte, error) {
	n := rs.n()
	// X = z_next^r·z_prev^{-r} with no field inverse: z_prev lies in the
	// order-q subgroup, so z_prev^{-r} = z_prev^{q-r} (see
	// docs/ARCHITECTURE.md#deviations). One ExpPair call on the fixed
	// window over q's bit length raises both, their bases taken into the
	// domain straight from the z slots; the forward edge z_next^r stays
	// in the Montgomery domain for finish. X is bit-identical to
	// bdkey.XValue's, and the meter charges the same logical operation.
	mo := rs.p
	edge, back := mo.ExpPair(rs.zs.ToMont((rs.self+1)%n), rs.r, rs.zs.ToMont((rs.self-1+n)%n), rs.r.Neg())
	rs.edge = edge
	mo.MulInto(back, edge, back)
	x := mo.FromMont(back)
	mc.m.Exp(1)

	// Z = Π z_i mod p, T = Π t_i mod N, c = H(T, Z), both products as
	// division-free Montgomery chains over the slots.
	rs.bigZ = mo.ProductOf(rs.zs)
	rs.c = gq.GroupChallenge(rs.nn.ProductOf(rs.ts), rs.bigZ)
	s := mc.sk.Respond(rs.tau, rs.c)
	mc.m.SignGen(meter.SchemeGQ, 1)

	if !rs.xs.Load(rs.self, x) || !rs.ss.Load(rs.self, s) {
		return nil, fmt.Errorf("engine: %s's own X or s is out of range", mc.id)
	}
	return wire.NewBuffer().PutString(mc.id).PutBig(x).PutBig(s).Bytes(), nil
}

// finish performs the Authentication and Key Computation phase: one batch
// verification of all GQ responses (equation 2), the Lemma-1 product check
// on the X values, and the BD key computation (equation 3), returning the
// committed group view. The checks run in that order and stop at the
// first failure, so a failed equation (2) or Lemma 1 never charges the
// key computation's Exp.
func (rs *ringState) finish(mc *Machine) (*Group, error) {
	// Equation (2): c == H((Πs_i)^e · (ΠH(U_i))^{-c}, Z), through the
	// roster's process-shared verifier, so no identity is re-hashed, the
	// identity product is not re-inverted per round, and a recurring
	// roster walks a fixed-base table of the inverse.
	gv, err := gq.SharedVerifier(mc.cfg.Set.RSA, rs.roster)
	if err == nil {
		err = gv.BatchVerifyPacked(rs.ss, rs.c, rs.bigZ)
	}
	mc.m.SignVer(meter.SchemeGQ, 1)
	if err != nil {
		return nil, Retryable(err)
	}

	// Lemma 1 (Π X_i ≡ 1 mod p) and equation (3) are one chain over the
	// raw X slots. The forward edge is the next member's backward edge, so
	// the key is computed in that member's view, with edge^n.
	key, err := bdkey.KeyFromEdge(rs.p, (rs.self+1)%rs.n(), rs.edge, rs.xs)
	if errors.Is(err, bdkey.ErrLemma1) {
		return nil, Retryable(err)
	}
	if err != nil {
		return nil, err
	}
	mc.m.Exp(1)
	k, err := mc.groupKey(key)
	if err != nil {
		return nil, err
	}

	// The committed group takes over the ring's roster, position map and
	// z and t slots, which nothing writes after the flow commits.
	return &Group{
		Roster: rs.roster,
		pos:    rs.pos,
		R:      rs.r,
		Tau:    rs.tau,
		zs:     rs.zs,
		ts:     rs.ts,
		Key:    k,
	}, nil
}

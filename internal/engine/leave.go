package engine

import (
	"errors"
	"fmt"
	"math/big"

	"idgka/internal/mathx"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// PlanPartition derives the contracted ring and the refresh set for a
// Leave/Partition of the given members from the current ring. Remaining
// odd-indexed members (1-based positions in the current ring) refresh
// their exponents and GQ commitments, exactly as the paper specifies;
// stale marks members whose stored commitment cannot be reused (e.g. a
// member that joined after the last full keying holds no τ) — they are
// added to the refresh set so every survivor knows to expect their
// round-1 broadcast.
func PlanPartition(ring, leavers []string, stale map[string]bool) (newRoster, refresh []string, err error) {
	if len(leavers) == 0 {
		return nil, nil, errors.New("engine: no leavers given")
	}
	leaving := map[string]bool{}
	for _, id := range leavers {
		leaving[id] = true
	}
	for i, id := range ring {
		if leaving[id] {
			continue
		}
		newRoster = append(newRoster, id)
		oneBased := i + 1
		if oneBased%2 == 1 || stale[id] {
			refresh = append(refresh, id)
		}
	}
	if len(newRoster) < 2 {
		return nil, nil, errors.New("engine: partition would leave fewer than 2 members")
	}
	if len(newRoster) == len(ring) {
		return nil, nil, errors.New("engine: leavers are not in the group")
	}
	return newRoster, refresh, nil
}

// PlanLeave derives the Partition parameters for evicting leavers from a
// committed group using only that group's own state: members without a
// stored GQ commitment in the group's t-table (e.g. admitted by a Join
// since the last full keying) are marked stale and must refresh. Every
// member's state tables record the same t-view, so all survivors derive
// an identical plan with no coordinator.
func PlanLeave(g *Group, leavers []string) (newRoster, refresh []string, err error) {
	stale := map[string]bool{}
	for _, id := range g.Roster {
		if g.T[id] == nil {
			stale[id] = true
		}
	}
	return PlanPartition(g.Roster, leavers, stale)
}

// leaveFlow runs the two-round Leave/Partition protocol of Section 7 for
// one surviving member. Refreshing survivors broadcast fresh z'_j ‖ t'_j in
// round 1 (in strict-nonce mode every survivor broadcasts a fresh t'_j);
// everyone then recomputes X values over the contracted ring, batch
// authenticates and derives the new key (equations 10-13).
type leaveFlow struct {
	mc   *Machine
	base *Group // the ring being contracted, snapshotted at Start
	ring *ringState

	// refreshers draw fresh exponents; senders is the set of expected
	// round-1 broadcasters (refreshers, plus every survivor in strict
	// mode).
	refreshers map[string]bool
	senders    map[string]bool
	gotR1      map[string]bool

	started   bool
	emittedR2 bool
	seen      map[string]bool
}

// StartPartition begins a Leave/Partition re-key over the contracted ring
// newRoster. refresh lists the members drawing fresh exponents (normally
// engine.PlanPartition output); every participant must be started with the
// same roster and refresh list. base names the committed session being
// contracted (empty base selects the machine's most recently committed
// group, for single-group lockstep drivers); it must cover the contracted
// ring. The re-keyed group commits under the flow's sid.
func (mc *Machine) StartPartition(sid, base string, newRoster, refresh []string) ([]Outbound, []Event, error) {
	g, err := mc.baseGroup(base)
	if err != nil {
		return nil, nil, err
	}
	if len(newRoster) < 2 {
		return nil, nil, errors.New("engine: partition would leave fewer than 2 members")
	}
	for _, id := range newRoster {
		if g.Position(id) < 0 {
			return nil, nil, fmt.Errorf("engine: partition survivor %q not in base session ring %v", id, g.Roster)
		}
	}
	rs, err := newRingState(newRoster, mc.id)
	if err != nil {
		return nil, nil, err
	}
	f := &leaveFlow{
		mc:         mc,
		base:       g,
		ring:       rs,
		refreshers: map[string]bool{},
		senders:    map[string]bool{},
		gotR1:      map[string]bool{},
		seen:       map[string]bool{},
	}
	for _, id := range refresh {
		f.refreshers[id] = true
		f.senders[id] = true
	}
	if mc.cfg.StrictNonceRefresh {
		for _, id := range newRoster {
			f.senders[id] = true
		}
	}
	return mc.start(sid, f)
}

// begin seeds the contracted-ring view from the committed session, draws
// fresh material when this member refreshes, and emits the round-1
// broadcast when this member is a sender.
func (f *leaveFlow) begin() ([]Outbound, error) {
	mc := f.mc
	g := f.base
	refreshing := f.refreshers[mc.id]

	// Start from the session's stored views; fresh own values overwrite.
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

	if !f.senders[mc.id] {
		// Paper behaviour: even members stay silent and will reuse their
		// stored commitment.
		return nil, nil
	}
	sg := mc.cfg.Set.Schnorr
	var zNew *big.Int
	if refreshing {
		r, err := mathx.RandScalar(mc.cfg.rand(), sg.Q)
		if err != nil {
			return nil, err
		}
		zNew = sg.Exp(r)
		mc.m.Exp(1)
		f.ring.r = r
		f.ring.z[mc.id] = zNew
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
	payload := wire.NewBuffer().PutString(mc.id).PutBig(zNew).PutBig(t).Bytes()
	return []Outbound{{Type: MsgLeave1, Payload: payload}}, nil
}

func (f *leaveFlow) deliver(msg *netsim.Message) error {
	key := msg.Type + "|" + msg.From
	if f.seen[key] {
		return nil // duplicate broadcast
	}
	switch msg.Type {
	case MsgLeave1:
		f.seen[key] = true
		return f.recordRound1(msg)
	case MsgLeave2:
		f.seen[key] = true
		return f.ring.recordRound2(msg)
	default:
		return nil
	}
}

// recordRound1 ingests one survivor's refresh broadcast z'_j ‖ t'_j
// (either value may be absent: strict-mode non-refreshers send only t').
func (f *leaveFlow) recordRound1(msg *netsim.Message) error {
	r := wire.NewReader(msg.Payload)
	id := r.String()
	z := r.Big()
	t := r.Big()
	if err := r.Close(); err != nil {
		return Retryable(fmt.Errorf("leave round1 from %s: %w", msg.From, err))
	}
	if id != msg.From {
		return Retryable(errors.New("leave round1 identity mismatch"))
	}
	if !f.senders[id] || !f.ring.inRoster(id) {
		return Retryable(fmt.Errorf("leave round1 from unexpected sender %q", id))
	}
	if z.Sign() > 0 {
		f.ring.z[id] = z
	}
	if t.Sign() > 0 {
		f.ring.t[id] = t
	}
	f.gotR1[id] = true
	return nil
}

// round1Done reports whether every expected round-1 broadcast (from peers)
// has arrived.
func (f *leaveFlow) round1Done() bool {
	for id := range f.senders {
		if id == f.mc.id {
			continue
		}
		if !f.gotR1[id] {
			return false
		}
	}
	return true
}

func (f *leaveFlow) advance() ([]Outbound, []Event, error) {
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
		// All survivors must now have a current z and t on file.
		for _, id := range f.ring.roster {
			if f.ring.z[id] == nil {
				return outs, nil, Retryable(fmt.Errorf("leave: %s missing z for %s", f.mc.id, id))
			}
			if f.ring.t[id] == nil {
				return outs, nil, Retryable(fmt.Errorf("leave: %s missing t for %s", f.mc.id, id))
			}
		}
		isController := f.ring.self == 0
		if !isController || len(f.ring.x) == f.ring.n()-1 {
			payload, err := f.ring.round2Payload(f.mc)
			if err != nil {
				return outs, nil, err
			}
			outs = append(outs, Outbound{Type: MsgLeave2, Payload: payload})
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

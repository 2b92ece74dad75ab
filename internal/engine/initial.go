package engine

import (
	"errors"
	"fmt"

	"idgka/internal/mathx"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// initialFlow runs the two-round authenticated GKA of Section 4 for one
// member. Round 1: everyone broadcasts m_i = U_i ‖ z_i ‖ t_i. Round 2:
// every member except the controller broadcasts m'_i = U_i ‖ X_i ‖ s_i as
// soon as its round-1 view is complete; the controller (U_1, a trusted
// node) broadcasts last, per the paper — its machine withholds its round-2
// message until it has received everyone else's.
type initialFlow struct {
	mc   *Machine
	ring *ringState

	started   bool
	emittedR2 bool
	seen      map[string]bool
}

// StartInitial begins the two-round authenticated group key agreement for
// the given ring (roster order = ring order; roster[0] is the trusted
// controller U_1). The machine's member must appear in the roster.
func (mc *Machine) StartInitial(sid string, roster []string) ([]Outbound, []Event, error) {
	if len(roster) < 2 {
		return nil, nil, errors.New("engine: initial GKA needs at least 2 members")
	}
	rs, err := newRingState(roster, mc.id)
	if err != nil {
		return nil, nil, err
	}
	return mc.start(sid, &initialFlow{mc: mc, ring: rs, seen: map[string]bool{}})
}

// begin draws the member's fresh keying material and returns the encoded
// round-1 broadcast m_i = U_i ‖ z_i ‖ t_i.
func (f *initialFlow) begin() (Outbound, error) {
	mc := f.mc
	sg := mc.cfg.Set.Schnorr
	r, err := mathx.RandScalar(mc.cfg.rand(), sg.Q)
	if err != nil {
		return Outbound{}, fmt.Errorf("engine: round1: %w", err)
	}
	z := sg.Exp(r)
	mc.m.Exp(1)
	tau, t, err := gq.Commitment(mc.cfg.rand(), gq.ParamsFrom(mc.cfg.Set.RSA))
	if err != nil {
		return Outbound{}, err
	}
	f.ring.r = r
	f.ring.tau = tau
	f.ring.z[mc.id] = z
	f.ring.t[mc.id] = t
	payload := wire.NewBuffer().PutString(mc.id).PutBig(z).PutBig(t).Bytes()
	return Outbound{Type: MsgRound1, Payload: payload}, nil
}

func (f *initialFlow) deliver(msg *netsim.Message) error {
	key := msg.Type + "|" + msg.From
	if f.seen[key] {
		return nil // duplicate broadcast; first delivery wins
	}
	switch msg.Type {
	case MsgRound1:
		f.seen[key] = true
		return f.recordRound1(msg)
	case MsgRound2:
		f.seen[key] = true
		return f.ring.recordRound2(msg)
	default:
		return nil // stray traffic of another protocol phase
	}
}

// recordRound1 ingests one peer's round-1 broadcast.
func (f *initialFlow) recordRound1(msg *netsim.Message) error {
	mc := f.mc
	r := wire.NewReader(msg.Payload)
	id := r.String()
	z := r.Big()
	t := r.Big()
	if err := r.Close(); err != nil {
		return Retryable(fmt.Errorf("round1 from %s: %w", msg.From, err))
	}
	if id != msg.From {
		return Retryable(fmt.Errorf("round1 identity mismatch: payload %q, sender %q", id, msg.From))
	}
	if !f.ring.inRoster(id) {
		return Retryable(fmt.Errorf("round1 from non-member %q", id))
	}
	sg := mc.cfg.Set.Schnorr
	if z.Sign() <= 0 || z.Cmp(sg.P) >= 0 {
		return Retryable(fmt.Errorf("round1 z from %s out of range", id))
	}
	if t.Sign() <= 0 || t.Cmp(mc.cfg.Set.RSA.N) >= 0 {
		return Retryable(fmt.Errorf("round1 t from %s out of range", id))
	}
	f.ring.z[id] = z
	f.ring.t[id] = t
	return nil
}

func (f *initialFlow) advance() ([]Outbound, []Event, error) {
	var outs []Outbound
	if !f.started {
		out, err := f.begin()
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		f.started = true
	}
	if !f.emittedR2 && f.ring.round1Complete() {
		isController := f.ring.self == 0
		// The controller broadcasts its round-2 message only after every
		// other member's has arrived (len(x) counts peers until our own
		// round2Payload records ours).
		if !isController || len(f.ring.x) == f.ring.n()-1 {
			payload, err := f.ring.round2Payload(f.mc)
			if err != nil {
				return nil, nil, err
			}
			outs = append(outs, Outbound{Type: MsgRound2, Payload: payload})
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

package engine

import (
	"errors"
	"fmt"
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
	for i, id := range g.Roster {
		if !g.ts.InRange(i) {
			stale[id] = true
		}
	}
	return PlanPartition(g.Roster, leavers, stale)
}

// StartPartition begins a Leave/Partition re-key over the contracted ring
// newRoster. refresh lists the members drawing fresh exponents (normally
// engine.PlanPartition output); every participant must be started with the
// same roster and refresh list. Refreshers, and in strict-nonce mode every
// survivor, broadcast in round 1. base names the committed session being
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
	return mc.startRing(sid, &ringFlow{base: g, r1: MsgLeave1, r2: MsgLeave2}, newRoster, refresh, mc.cfg.StrictNonceRefresh)
}

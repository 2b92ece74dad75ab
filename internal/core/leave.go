package core

import (
	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// RunLeave executes the two-round Leave protocol of Section 7, removing a
// single member. members must be the current ring (including the leaver).
func RunLeave(net netsim.Medium, members []*engine.Machine, leaver string) error {
	return RunPartition(net, members, []string{leaver})
}

// RunPartition executes the Partition protocol — the mass-leave
// generalisation of Leave (the paper presents them separately; the
// mathematics is identical with L the set of departed members). Remaining
// odd-indexed members (1-based positions in the current ring) refresh
// their exponents and GQ commitments; everyone remaining recomputes X
// values over the contracted ring, authenticates with one batch
// verification, and derives the new key (equations 11/13).
func RunPartition(net netsim.Medium, members []*engine.Machine, leavers []string) error {
	// Members whose stored commitment cannot be reused (e.g. a member that
	// joined since the last full keying holds no τ) must refresh too.
	stale := map[string]bool{}
	for _, mc := range members {
		g := mc.Group()
		if g == nil {
			return engine.ErrNoSession
		}
		if g.Tau.Order() == nil {
			stale[mc.ID()] = true
		}
	}
	newRoster, refresh, err := engine.PlanPartition(rosterOf(members), leavers, stale)
	if err != nil {
		return err
	}
	remainSet := map[string]bool{}
	for _, id := range newRoster {
		remainSet[id] = true
	}
	var remain []*engine.Machine
	for _, mc := range members {
		if remainSet[mc.ID()] {
			remain = append(remain, mc)
		}
	}
	return runFlow(net, remain, func(mc *engine.Machine, sid string) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartPartition(sid, lockstepBase, newRoster, refresh)
	}, "partition", true)
}

package core

import (
	"errors"

	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// RunLeave executes the two-round Leave protocol of Section 7, removing a
// single member. members must be the current ring (including the leaver).
func RunLeave(net netsim.Medium, members []*Member, leaver string) error {
	return RunPartition(net, members, []string{leaver})
}

// RunPartition executes the Partition protocol — the mass-leave
// generalisation of Leave (the paper presents them separately; the
// mathematics is identical with L the set of departed members). Remaining
// odd-indexed members (1-based positions in the current ring) refresh
// their exponents and GQ commitments; everyone remaining recomputes X
// values over the contracted ring, authenticates with one batch
// verification, and derives the new key (equations 11/13).
func RunPartition(net netsim.Medium, members []*Member, leavers []string) error {
	if len(leavers) == 0 {
		return errors.New("core: no leavers given")
	}
	// Members whose stored commitment cannot be reused (e.g. a member that
	// joined since the last full keying holds no τ) must refresh too.
	stale := map[string]bool{}
	for _, mb := range members {
		if mb.Session() == nil || mb.Session().Key == nil {
			return errNoSession
		}
		if mb.Session().Tau == nil {
			stale[mb.ID()] = true
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
	var remain []*Member
	for _, mb := range members {
		if remainSet[mb.ID()] {
			remain = append(remain, mb)
		}
	}
	return runFlowRetrying(net, remain, func(mb *Member, sid string) ([]engine.Outbound, []engine.Event, error) {
		return mb.mach.StartPartition(sid, lockstepBase, newRoster, refresh)
	}, "partition")
}

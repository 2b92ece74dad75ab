package core

import (
	"errors"

	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// RunInitial executes the two-round authenticated GKA of Section 4 over
// the network for the given members (ring order = slice order; members[0]
// is the trusted controller U_1, whose machine broadcasts its round-2
// message after all others). On verification failure every member
// retransmits with fresh randomness, up to cfg.MaxRetries attempts.
func RunInitial(net netsim.Medium, members []*Member) error {
	if len(members) < 2 {
		return errors.New("core: initial GKA needs at least 2 members")
	}
	roster := rosterOf(members)
	return runFlowRetrying(net, members, func(mb *Member, sid string) ([]engine.Outbound, []engine.Event, error) {
		return mb.mach.StartInitial(sid, roster)
	}, "initial GKA")
}

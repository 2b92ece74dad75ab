package core

import (
	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// RunInitial executes the two-round authenticated GKA of Section 4 over
// the network for the given members (ring order = slice order; members[0]
// is the trusted controller U_1, whose machine broadcasts its round-2
// message after all others). On verification failure every member
// retransmits with fresh randomness, up to the controller's retry budget.
func RunInitial(net netsim.Medium, members []*engine.Machine) error {
	roster := rosterOf(members)
	return runFlow(net, members, func(mc *engine.Machine, sid string) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial(sid, roster)
	}, "initial GKA", true)
}

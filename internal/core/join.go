package core

import (
	"errors"

	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// RunJoin executes the three-round Join protocol of Section 7, admitting
// joiner into the group currently held by members (which must share an
// established session; members must be in ring order). After success every
// member of the new group, including the joiner, holds the new key
// K' = K* · K_{U_n U_{n+1}} (equation 6) and a session with the joiner
// appended to the ring between U_n and U_1.
//
// Message and operation counts follow the paper exactly: 4 messages on the
// medium (the paper's Table 4 lists 5; see
// docs/ARCHITECTURE.md#accounting-conventions), 2
// exponentiations for U_1 and U_{n+1}, 1 for U_n, none for the rest.
func RunJoin(net netsim.Medium, members []*Member, joiner *Member) error {
	if len(members) < 2 {
		return errors.New("core: join needs an existing group of >= 2")
	}
	for _, mb := range members {
		if mb.Session() == nil || mb.Session().Key == nil {
			return errNoSession
		}
	}
	roster := rosterOf(members)
	all := append(append([]*Member{}, members...), joiner)
	return runFlowFatal(net, all, func(mb *Member) ([]engine.Outbound, []engine.Event, error) {
		return mb.mach.StartJoin(lockstepSID, lockstepBase, roster, joiner.ID())
	}, "join")
}

package core

import (
	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// ConfirmKey runs an optional explicit key-confirmation round — an
// extension beyond the paper (whose protocols provide only implicit key
// authentication): every member broadcasts H(key ‖ id ‖ roster) and checks
// every peer's digest. One hash broadcast per member; detects any
// divergence in the computed group key before the key is used.
func ConfirmKey(net netsim.Medium, members []*Member) error {
	if len(members) == 0 {
		return errNoSession
	}
	return runFlowFatal(net, members, func(mb *Member, sid string) ([]engine.Outbound, []engine.Event, error) {
		return mb.mach.StartConfirm(sid, lockstepBase)
	}, "key confirmation")
}

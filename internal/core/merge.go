package core

import (
	"errors"

	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// RunMerge executes the three-round Merge protocol of Section 7, fusing
// group A (ring U_1…U_n) and group B (ring U_{n+1}…U_{n+m}) into a single
// keyed group with ring A‖B. Only the two controllers U_1 and U_{n+1}
// perform exponentiations (4 each); every other member does symmetric
// decryptions only. The final key is K' = K*_A · K*_B (equation 9).
func RunMerge(net netsim.Medium, groupA, groupB []*Member) error {
	if len(groupA) < 2 || len(groupB) < 2 {
		return errors.New("core: merge needs two groups of >= 2")
	}
	for _, mb := range append(append([]*Member{}, groupA...), groupB...) {
		if mb.Session() == nil || mb.Session().Key == nil {
			return errNoSession
		}
	}
	rosterA := rosterOf(groupA)
	rosterB := rosterOf(groupB)
	all := append(append([]*Member{}, groupA...), groupB...)
	return runFlowFatal(net, all, func(mb *Member, sid string) ([]engine.Outbound, []engine.Event, error) {
		return mb.mach.StartMerge(sid, lockstepBase, rosterA, rosterB)
	}, "merge")
}

// RunMergeMulti folds k groups into one by sequential pairwise merges
// (k-1 merges, matching the paper's 6(k-1) message count).
func RunMergeMulti(net netsim.Medium, groups ...[]*Member) ([]*Member, error) {
	if len(groups) < 2 {
		return nil, errors.New("core: multi-merge needs >= 2 groups")
	}
	acc := groups[0]
	for _, g := range groups[1:] {
		if err := RunMerge(net, acc, g); err != nil {
			return nil, err
		}
		acc = append(append([]*Member{}, acc...), g...)
	}
	return acc, nil
}

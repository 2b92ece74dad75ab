package core

import "testing"

// maxEstablishAllocs8 bounds the heap allocations of one lockstep
// establishment of 8 members: the drivers' sweeps and medium, and every
// member's two rounds, equation (2), Lemma 1 and equation (3). Ring state
// is indexed by roster position and sized once, and peers' values decode
// straight into per-member limb slots with no per-message big.Int,
// reader or identity string, round 2 takes no field inverse, and the
// committed group keeps the ring's z and t slots. The run measures
// 1,039 on amd64 and on 386 and 1,047 with -tags math_big_pure_go; the
// bound, 58 above the amd64 count, stays short of one more allocation
// per delivered message (8 members × 14 deliveries = 112).
const maxEstablishAllocs8 = 1097

// TestEstablishAllocs pins the allocations of one n = 8 lockstep
// establishment. It holds under -race too.
func TestEstablishAllocs(t *testing.T) {
	net, members := buildGroup(t, 8, nil)
	if err := RunInitial(net, members); err != nil { // warm the shared verifier and caches
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if err := RunInitial(net, members); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one n=8 lockstep establishment: %.0f allocations", got)
	if got > maxEstablishAllocs8 {
		t.Fatalf("one n=8 lockstep establishment made %.0f allocations, want at most %d", got, maxEstablishAllocs8)
	}
}

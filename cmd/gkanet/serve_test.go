package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"idgka/internal/transport"
)

// newHub starts a relay hub on loopback for one test.
func newHub(t *testing.T) string {
	t.Helper()
	hub, err := transport.NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	return hub.Addr()
}

// newTestProc attaches own to the hub through a fresh router, as one
// process of a deployment; a non-zero barrierTotal makes it one of
// several processes.
func newTestProc(t *testing.T, hubAddr string, own []string, barrierTotal int) *proc {
	t.Helper()
	router := transport.NewRouter(hubAddr)
	t.Cleanup(router.Close)
	p, err := attach(router, own, barrierTotal)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runScenario plans the row c selects and runs it in one process over a
// fresh hub, asserting the outcome every row promises.
func runScenario(t *testing.T, c config) outcome {
	t.Helper()
	_, own, sc, err := c.plan()
	if err != nil {
		t.Fatal(err)
	}
	out, err := newTestProc(t, newHub(t), own, 0).run(sc, c.groups)
	if err != nil {
		t.Fatalf("%+v over TCP: %v", c, err)
	}
	checkOutcome(t, sc, out, c.groups)
	return out
}

// checkOutcome asserts what every scenario row promises: each group
// settles one final key (run cross-checks every hosted member's), no two
// groups share a key — rotated rings have distinct controllers and fresh
// randomness — and the node a leave flow evicted does not hold its
// group's final key.
func checkOutcome(t *testing.T, sc scenario, out outcome, groups int) {
	t.Helper()
	if len(out.keys) != groups {
		t.Fatalf("got %d keys, want %d", len(out.keys), groups)
	}
	seen := map[string]bool{}
	for g, k := range out.keys {
		if k == nil {
			t.Fatalf("g%02d: no final key", g)
		}
		if seen[string(k)] {
			t.Fatalf("g%02d reuses another group's key", g)
		}
		seen[string(k)] = true
		if sc.out != "" && (out.evicted[g] == nil || bytes.Equal(k, out.evicted[g])) {
			t.Fatalf("g%02d: %s still holds the survivors' key", g, sc.out)
		}
	}
}

// TestServeEstablishmentOverTCP is the acceptance path of the event
// mode: a real hub on loopback, one TCP connection per node, every member
// on one serve.Host driven only by its own inbox — establishment and key
// confirmation agree in every group.
func TestServeEstablishmentOverTCP(t *testing.T) {
	for _, groups := range []int{1, 3} {
		t.Run(fmt.Sprintf("G%d", groups), func(t *testing.T) {
			out := runScenario(t, config{n: 4, groups: groups, mode: "event"})
			// Per group, each member transmitted its two protocol rounds
			// plus one confirmation digest, and its member counted the
			// exponentiations the energy line prices.
			for i, r := range out.reports {
				if r.MsgTx != 3*groups || r.Exp == 0 {
					t.Errorf("node %d: MsgTx = %d, Exp = %d; want MsgTx %d and Exp > 0", i, r.MsgTx, r.Exp, 3*groups)
				}
			}
		})
	}
}

// TestServeLifecycleOverTCP runs the coordinator-free dynamic-membership
// row over a real hub: establish, admit a new TCP node via Join, evict a
// member via Leave, confirming after every re-key. Every member derives
// the flow parameters from its own committed sessions; the survivors,
// joined node included, agree on a final key the evictee does not hold.
func TestServeLifecycleOverTCP(t *testing.T) {
	for _, groups := range []int{1, 3} {
		t.Run(fmt.Sprintf("G%d", groups), func(t *testing.T) {
			runScenario(t, config{n: 4, groups: groups, mode: "event", dynamic: true})
		})
	}
}

// TestEventDrivenCrashRecoveryOverTCP is the fault-tolerance acceptance
// path for one group: a node's connection dies without warning; the hub
// settles every delivery blocked on it and deals peer-down frames to the
// survivors, which cancel whatever the death wedged, evict the dead node
// via the paper's Leave protocol and converge on a confirmed fresh key the
// victim does not hold. At phase "established" the victim dies before the
// confirmation round, so every survivor's confirm run is genuinely wedged
// until the peer-down event cancels it.
func TestEventDrivenCrashRecoveryOverTCP(t *testing.T) {
	for _, phase := range []string{phaseEstablished, phaseConfirmed} {
		t.Run(phase, func(t *testing.T) {
			runScenario(t, config{n: 4, groups: 1, mode: "event", crash: "node-02@" + phase})
		})
	}
}

// TestServeCrashRecoveryOverTCP is the same crash with several groups on
// one serve.Host: every hosted group independently evicts the victim and
// converges on its own fresh confirmed key.
func TestServeCrashRecoveryOverTCP(t *testing.T) {
	for _, phase := range []string{phaseEstablished, phaseConfirmed} {
		t.Run(phase, func(t *testing.T) {
			runScenario(t, config{n: 4, groups: 3, mode: "event", crash: "node-02@" + phase})
		})
	}
}

// TestServeMultiGroupOverTCP keys more groups than there are nodes, so
// several rotated rings share a controller; every group still converges
// on its own confirmed key.
func TestServeMultiGroupOverTCP(t *testing.T) {
	runScenario(t, config{n: 3, groups: 4, mode: "event"})
}

// TestServeSplitProcessesOverTCP splits one deployment across two routers
// on one hub, as two gkanet processes with -own do: each half runs its
// own serve.Host, the ready-barrier lines the halves up, each settles only
// its own runs, and both must report identical keys for every group. The
// crash rows put the victim in the second half; the lifecycle row leaves
// the second half only the joiner, which hosts no run until the join.
func TestServeSplitProcessesOverTCP(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    config
		own  [2]string
	}{
		{"crash-established", config{n: 4, groups: 3, mode: "event", crash: "node-04@established"},
			[2]string{"node-01,node-03", "node-02,node-04"}},
		{"crash-confirmed", config{n: 4, groups: 3, mode: "event", crash: "node-04@confirmed"},
			[2]string{"node-01,node-03", "node-02,node-04"}},
		{"lifecycle-joiner-apart", config{n: 4, groups: 3, mode: "event", dynamic: true},
			[2]string{"node-01,node-02,node-03,node-04", "node-05"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := newHub(t)
			var procs [2]*proc
			var scs [2]scenario
			for h := range procs {
				c := tc.c
				c.own = tc.own[h]
				ids, own, sc, err := c.plan()
				if err != nil {
					t.Fatal(err)
				}
				procs[h], scs[h] = newTestProc(t, hub, own, len(ids)), sc
			}
			var outs [2]outcome
			var errs [2]error
			var wg sync.WaitGroup
			for h := range procs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[h], errs[h] = procs[h].run(scs[h], tc.c.groups)
				}()
			}
			wg.Wait()
			for h := range procs {
				if errs[h] != nil {
					t.Fatalf("process %d: %v", h, errs[h])
				}
				checkOutcome(t, scs[h], outs[h], tc.c.groups)
			}
			for g := range outs[0].keys {
				if !bytes.Equal(outs[0].keys[g], outs[1].keys[g]) {
					t.Fatalf("g%02d: the two processes report different keys", g)
				}
			}
		})
	}
}

package main

import "testing"

// TestServeMultiGroupOverTCP: the sharded serve layer hosts several
// groups (rotated rings over all nodes) concurrently over one real hub;
// every group converges on an agreed, confirmed key.
func TestServeMultiGroupOverTCP(t *testing.T) {
	const n, groups = 3, 4
	p := newProc(t, n)
	fps, err := p.serveScenario(p.ids, groups, "", "")
	if err != nil {
		t.Fatalf("serve scenario: %v", err)
	}
	if len(fps) != groups {
		t.Fatalf("got %d fingerprints, want %d", len(fps), groups)
	}
	// Rotated rings have distinct controllers (and fresh randomness):
	// no two groups may share a key.
	seen := map[[32]byte]bool{}
	for g, fp := range fps {
		if seen[fp] {
			t.Fatalf("group %d reuses another group's key", g)
		}
		seen[fp] = true
	}
}

// TestServeCrashRecoveryOverTCP: the victim dies mid-deployment; every
// hosted group independently evicts it and converges on a fresh
// confirmed key.
func TestServeCrashRecoveryOverTCP(t *testing.T) {
	for _, phase := range []string{phaseEstablished, phaseConfirmed} {
		t.Run(phase, func(t *testing.T) {
			const n, groups = 3, 3
			p := newProc(t, n)
			victim := p.ids[1]
			fps, err := p.serveScenario(p.ids, groups, victim, phase)
			if err != nil {
				t.Fatalf("serve crash scenario (%s): %v", phase, err)
			}
			if len(fps) != groups {
				t.Fatalf("got %d fingerprints, want %d", len(fps), groups)
			}
		})
	}
}

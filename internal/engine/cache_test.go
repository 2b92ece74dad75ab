package engine_test

import (
	"fmt"
	"testing"

	"idgka/internal/engine"
)

// TestRosterVerifierCacheBounded keys one member into more distinct rings
// than its roster-verifier cache holds: the cache never grows past its
// bound, every ring agrees on its key, and a ring whose verifier was
// evicted re-keys correctly through a rebuilt one.
func TestRosterVerifierCacheBounded(t *testing.T) {
	const rings = engine.VerifierCacheSize + 4
	all := []string{"HUB"}
	for i := 0; i < rings; i++ {
		all = append(all, fmt.Sprintf("P%02d", i))
	}
	nodes := buildNodes(t, all)
	establish := func(sid string, ring []string) {
		t.Helper()
		b := newBus(t, nodes, ring)
		for _, id := range ring {
			b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartInitial(sid, ring)
			})
		}
		b.pump()
		assertSession(t, nodes, ring, sid)
		if n := engine.VerifierCacheLen(nodes["HUB"].mc); n > engine.VerifierCacheSize {
			t.Fatalf("after %s: %d cached roster verifiers, bound %d", sid, n, engine.VerifierCacheSize)
		}
	}
	first := []string{"HUB", all[1], all[2]}
	for i := 0; i < rings; i++ {
		establish(fmt.Sprintf("ring-%02d", i), []string{"HUB", all[1+i], all[1+(i+1)%rings]})
	}
	if n := engine.VerifierCacheLen(nodes["HUB"].mc); n != engine.VerifierCacheSize {
		t.Fatalf("%d cached roster verifiers after %d rings, want the bound %d", n, rings, engine.VerifierCacheSize)
	}
	establish("ring-00-again", first)
}

package engine

// VerifierCacheSize exposes the roster-verifier cache bound to the
// external tests.
const VerifierCacheSize = gvCacheSize

// VerifierCacheLen reports how many roster verifiers mc currently holds.
func VerifierCacheLen(mc *Machine) int {
	mc.gvMu.Lock()
	defer mc.gvMu.Unlock()
	return len(mc.gvCache)
}

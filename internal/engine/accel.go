package engine

import (
	"sync"

	"idgka/internal/sigs/gq"
)

// BatchVerifier lets a host amortize the engine's GQ batch checks across
// groups: when AccelConfig.BatchVerifier is set, the finish phase folds
// the round's responses into an algebraic claim (using a per-roster
// cached identity product, so nothing is re-hashed per round) and
// submits it instead of verifying in-line. The host coalesces claims
// from many concurrent groups and settles them together
// (internal/serve's verify queue, gq.VerifyClaimsRLC). VerifyClaim may
// block while a batch coalesces; it must return nil exactly when the
// claim holds, so verdicts match the in-line path.
type BatchVerifier interface {
	VerifyClaim(*gq.Claim) error
}

// AccelConfig tunes the crypto acceleration layer under a machine's hot
// path. The zero value disables everything, which keeps the engine's
// operation sequence — and therefore the lockstep drivers' byte/op
// accounting — exactly as the paper reproduction requires. Acceleration
// never changes protocol values: payloads, keys and verdicts are
// bit-identical with any combination of knobs.
type AccelConfig struct {
	// Precompute builds windowed fixed-base tables at machine creation —
	// for the Schnorr generator (every z_i = g^r broadcast) and the
	// member's GQ identity key (every response s_i = τ·S^c) — and enables
	// the multi-exponentiation fast path in the Burmester-Desmedt key
	// assembly. Tables attach to the shared parameter set, so the one-off
	// build cost is amortised across all members of a process.
	Precompute bool
	// VerifyWorkers bounds the worker pool that processes independent
	// incoming contributions concurrently: round 2's Z and T products,
	// and the finish-phase checks (signature batch, Lemma 1, key
	// computation), run as parallel tasks. 0 or 1 selects the exact
	// sequential path.
	VerifyWorkers int
	// BatchVerifier, when non-nil, defers the finish-phase GQ batch check
	// to a host-level claim queue (see the interface doc). Verdicts,
	// keys and meters are identical to the in-line check.
	BatchVerifier BatchVerifier
}

// pool is a bounded worker pool for independent verification tasks. A nil
// *pool runs tasks sequentially with fail-fast semantics — the exact
// legacy control flow — so call sites never branch on the accel mode.
type pool struct {
	sem chan struct{}
}

// newPool returns nil (sequential execution) unless workers > 1.
func newPool(workers int) *pool {
	if workers <= 1 {
		return nil
	}
	return &pool{sem: make(chan struct{}, workers)}
}

// Run executes the tasks. Sequentially (nil pool) it stops at the first
// error, exactly like straight-line code. On an active pool every task
// runs to completion on at most `workers` goroutines and the error of the
// lowest-indexed failing task is returned, so the surfaced failure is
// deterministic regardless of scheduling.
func (p *pool) Run(tasks ...func() error) error {
	if p == nil || len(tasks) < 2 {
		for _, t := range tasks {
			if err := t(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		p.sem <- struct{}{}
		wg.Add(1)
		go func(i int, t func() error) {
			defer wg.Done()
			defer func() { <-p.sem }()
			errs[i] = t()
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

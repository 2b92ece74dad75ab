// Package core implements the paper's contribution — the two-round
// ID-based authenticated group key agreement of Section 4 and the four
// dynamic protocols of Section 7 (Join, Leave, Merge, Partition) — as
// lockstep orchestrators over the event-driven protocol engine of
// internal/engine.
//
// Each participant is a *Member wrapping an engine.Machine (the
// per-member protocol state machine); the package-level orchestrators
// (RunInitial, RunJoin, RunLeave, RunPartition, RunMerge) start the same
// flow on every machine and then pump delivered messages between them
// over a netsim.Medium until every machine commits, running per-member
// computation concurrently (one goroutine per member, as the nodes would
// compute in the field). Each run keys its flow under a fresh session id.
// The medium models the paper's radio: the engine envelopes every payload
// with its session id and attempt, and the orchestrators strip that
// envelope before a message reaches the medium and restore it on
// delivery, so the medium carries exactly the paper's messages. The
// engine meters every operation the paper's complexity analysis charges,
// so the Tables 1–5 reproduction is exact. Event-driven deployments
// (cmd/gkanet, the idgka.Session API, netsim's async mode) drive the same
// engine without these orchestrators and carry the envelope on the wire.
package core

import (
	"errors"
	"math/big"

	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/sigs/gq"
)

// Config carries the knobs shared by all members of a deployment; see the
// field docs in internal/engine.
type Config = engine.Config

// Session is the per-member view of an established group: the ring roster,
// the member's own secrets, everything it has learned about peers, and the
// current group key.
type Session = engine.Group

// Member is one protocol participant: a thin handle on the member's
// event-driven protocol machine.
type Member struct {
	cfg  Config
	mach *engine.Machine
}

// NewMember constructs a participant from its extracted GQ identity key.
// The meter may be nil for uninstrumented runs.
func NewMember(cfg Config, sk *gq.PrivateKey, m *meter.Meter) (*Member, error) {
	if cfg.Set == nil {
		return nil, errors.New("core: nil parameter set")
	}
	if sk == nil {
		return nil, errors.New("core: nil identity key")
	}
	mach, err := engine.NewMachine(cfg, sk, m)
	if err != nil {
		return nil, err
	}
	return &Member{cfg: cfg, mach: mach}, nil
}

// ID returns the member's identity.
func (mb *Member) ID() string { return mb.mach.ID() }

// Meter returns the member's operation meter (may be nil).
func (mb *Member) Meter() *meter.Meter { return mb.mach.Meter() }

// Machine returns the member's underlying protocol engine, for callers
// that drive the member event-by-event instead of through the lockstep
// orchestrators.
func (mb *Member) Machine() *engine.Machine { return mb.mach }

// Session returns the member's current session (nil before the initial
// GKA completes).
func (mb *Member) Session() *Session { return mb.mach.Group() }

// Key returns the current group key, or nil.
func (mb *Member) Key() *big.Int { return mb.mach.Key() }

// IsRetryable reports whether an orchestrator error is the protocol-level
// "retransmit" signal.
func IsRetryable(err error) bool { return engine.IsRetryable(err) }

// errNoSession is returned by dynamic protocols invoked before RunInitial.
var errNoSession = engine.ErrNoSession

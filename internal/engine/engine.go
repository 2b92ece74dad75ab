// Package engine implements Tan & Teo's protocols as per-member
// event-driven state machines: the two-round ID-based authenticated group
// key agreement of Section 4 and the four dynamic protocols of Section 7
// (Join, Leave/Partition, Merge), plus an explicit key-confirmation round.
//
// Each participant owns a *Machine. Flows are started explicitly
// (StartInitial, StartJoin, StartPartition, StartMerge, StartConfirm) and
// then driven purely by delivered messages: Step(msg) returns the outbound
// messages the member emits in reaction plus any lifecycle events
// (key established, confirmation complete, flow failed). Flows advance on
// condition-triggered transitions, so messages may arrive in any order —
// early round-2 traffic, duplicated broadcasts and interleaved concurrent
// sessions are all tolerated. Messages for sessions that have not been
// started yet are buffered and replayed when the flow starts.
//
// Two wire modes exist:
//
//   - Enveloped (sid != ""): every payload is prefixed with the session id
//     and an attempt counter, so one machine can demultiplex any number of
//     concurrent sessions. This is the mode for real deployments
//     (cmd/gkanet, the idgka.Session public API, the netsim async mode).
//   - Legacy (sid == ""): payloads are exactly the seed's lockstep wire
//     format with no prefix, at most one flow is active at a time, and the
//     internal/core Run* drivers pump the machine synchronously. This keeps
//     the paper-comparable byte accounting identical to the original
//     lockstep implementation.
//
// Every operation the paper's complexity analysis charges is metered at
// the same points as the lockstep code, so Tables 1–5 and the energy model
// are unaffected by the execution mode.
//
// Concurrency model: any number of flows may run concurrently on one
// machine, and one machine may serve any number of independent groups.
// Committed groups live in a per-session registry keyed by session id;
// the dynamic flows (StartJoin, StartPartition, StartMerge) and
// StartConfirm name their base group explicitly — they snapshot the
// registry entry at Start (so a concurrent commit cannot switch keys
// under an in-flight flow) and commit the re-keyed group back under the
// flow's own session id. An empty base selects the machine's most
// recently committed group, the single-group model the legacy lockstep
// drivers use. The two wire modes are mutually exclusive while flows are
// in flight: starting a legacy flow while enveloped flows are active (or
// vice versa) is rejected, because legacy mode routes ALL inbound traffic
// raw into its one flow and would corrupt concurrent enveloped sessions.
package engine

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"
	"sync"

	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// Message type labels on the medium.
const (
	MsgRound1   = "gka/round1"   // m_i  = U_i ‖ z_i ‖ t_i
	MsgRound2   = "gka/round2"   // m'_i = U_i ‖ X_i ‖ s_i
	MsgJoin1    = "join/round1"  // m_{n+1} = U_{n+1} ‖ z_{n+1} ‖ σ_{n+1}
	MsgJoinCtl  = "join/round2a" // m'_1  = U_1 ‖ E_K(K*‖U_1)
	MsgJoinLast = "join/round2b" // m''_n = U_n ‖ E_K(K_DH‖U_n) ‖ z_n ‖ σ'_n
	MsgJoinFwd  = "join/round3"  // m'''_n = U_n → U_{n+1}: E_{K_DH}(K*‖U_n)
	MsgLeave1   = "leave/round1" // m_j  = U_j ‖ z'_j ‖ t'_j
	MsgLeave2   = "leave/round2" // m'_i = U_i ‖ X'_i ‖ s̄_i
	MsgMerge1   = "merge/round1" // controller advertisement
	MsgMerge2   = "merge/round2" // cross+intra wrapped keys
	MsgMerge3   = "merge/round3" // re-wrapped foreign keys
	MsgConfirm  = "gka/confirm"  // key-confirmation digest
)

// maxEarlyBuffer bounds the number of messages buffered for sessions that
// have not been started yet; beyond it the oldest are discarded. It must
// comfortably exceed (group size × concurrently outstanding flows):
// before a slow member starts its confirm flow it can legitimately hold
// one early digest from every peer, and evicting those would hang the
// group.
const maxEarlyBuffer = 16384

// Config carries the knobs shared by all members of a deployment.
type Config struct {
	// Set is the public parameter set from the PKG.
	Set *params.Set
	// Rand is the randomness source (crypto/rand when nil).
	Rand io.Reader
	// MaxRetries bounds the paper's "all members retransmit again" loop on
	// verification failure. Zero means 2.
	MaxRetries int
	// StrictNonceRefresh makes even-indexed survivors of Leave/Partition
	// draw fresh GQ commitments (and broadcast the new t'_j in Round 1)
	// instead of reusing τ_i as the paper specifies. The paper's reuse is a
	// security weakness (two GQ responses under one commitment leak the
	// long-term key); see docs/ARCHITECTURE.md#deviations. Off by default
	// for paper fidelity.
	StrictNonceRefresh bool
}

func (c Config) rand() io.Reader {
	if c.Rand == nil {
		return rand.Reader
	}
	return c.Rand
}

// Retries returns the retransmission budget (MaxRetries, defaulted).
func (c Config) Retries() int {
	if c.MaxRetries <= 0 {
		return 2
	}
	return c.MaxRetries
}

// Outbound is one message a machine wants delivered. An empty To means
// broadcast. StateLen marks the trailing bytes of the payload that carry
// session-state transfer (metered separately from protocol traffic). SID
// names the session the outbound belongs to — the same id already carried
// in the payload envelope, surfaced so routing layers can hand the message
// to the owning session handle without parsing the payload; it is empty in
// legacy wire mode and never serialized.
type Outbound struct {
	SID      string
	To       string
	Type     string
	Payload  []byte
	StateLen int
}

// SendAll routes a machine's outbound messages over a medium: broadcasts
// for empty To, unicasts otherwise, preserving the state-transfer byte
// accounting. It is the single dispatch point shared by the lockstep
// drivers, cmd/gkanet and tests.
func SendAll(m netsim.Medium, from string, outs []Outbound) error {
	for _, o := range outs {
		var err error
		if o.To == "" {
			err = m.BroadcastState(from, o.Type, o.Payload, o.StateLen)
		} else {
			err = m.SendState(from, o.To, o.Type, o.Payload, o.StateLen)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// EventKind classifies machine lifecycle events.
type EventKind int

const (
	// EventEstablished fires when a keying flow commits a new group; the
	// event carries the resulting Group view.
	EventEstablished EventKind = iota + 1
	// EventConfirmed fires when a key-confirmation flow has checked every
	// peer digest; the event carries the confirmed Group (the flow's
	// snapshot — confirmation commits nothing new).
	EventConfirmed
	// EventFailed fires when a flow cannot continue. Retryable failures are
	// the paper's "all members retransmit again" signal (verification or
	// parsing failure); the application restarts the flow with a higher
	// attempt number.
	EventFailed
	// EventPeerDown fires when the medium reports a peer dead (a
	// netsim.TypePeerDown control message was stepped); Peer names it. The
	// event belongs to no session — it is the trigger for the application
	// to evict the peer from every group it shares via the Leave flow.
	EventPeerDown
)

// Event is one lifecycle notification from Step or a Start call.
type Event struct {
	Kind      EventKind
	SID       string
	Group     *Group // set for EventEstablished and EventConfirmed
	Err       error  // set for EventFailed
	Retryable bool
	Peer      string // set for EventPeerDown
}

// retryErr marks verification failures that trigger the paper's
// "all members retransmit again" path.
type retryErr struct{ cause error }

func (e retryErr) Error() string {
	return fmt.Sprintf("engine: verification failed (retransmit): %v", e.cause)
}
func (e retryErr) Unwrap() error { return e.cause }

// ErrNoSession is returned by dynamic flows started before an initial
// establishment.
var ErrNoSession = errors.New("engine: member has no established session")

// Retryable wraps err as a retryable protocol failure.
func Retryable(err error) error { return retryErr{err} }

// IsRetryable reports whether an error is the protocol-level "retransmit"
// signal.
func IsRetryable(err error) bool {
	var r retryErr
	return errors.As(err, &r)
}

// flow is one in-progress protocol instance inside a machine.
//
// deliver records a raw (de-enveloped) message; advance fires every
// transition the recorded state allows and returns the emitted messages
// and lifecycle events. Flows never block: a message that cannot be acted
// on yet is recorded and acted on by a later advance.
type flow interface {
	deliver(msg *netsim.Message) error
	advance() ([]Outbound, []Event, error)
}

// runningFlow tracks one active flow keyed by session id.
type runningFlow struct {
	sid     string
	attempt uint64
	f       flow
	done    bool
	failed  bool
}

// Machine is the per-member protocol engine. It is not safe for concurrent
// use on its own: callers serialize access per machine — the public
// idgka.Member does so with its member mutex (making the Session API
// goroutine-safe), the lockstep drivers by construction.
type Machine struct {
	cfg Config
	id  string
	sk  *gq.PrivateKey
	m   *meter.Meter

	// bv, when non-nil, is the host-level claim verifier the finish
	// phase defers its GQ batch checks to (see SetBatchVerifier).
	bv BatchVerifier

	// gvCache holds the roster verifiers (cached identity products and
	// their inverses) of the gvCacheSize most recently keyed rosters,
	// least recent first; rosters recur across rounds and sessions, so
	// the hashing and inversion are one-off. It has its own lock because
	// finish phases of concurrent flows touch it.
	gvMu    sync.Mutex
	gvCache []rosterVerifier

	// group is the most recently committed group view (nil before the
	// first establishment). Lockstep drivers and single-group applications
	// read it directly; multi-session applications use Session(sid).
	group *Group

	// legacy is the single active flow in legacy wire mode. While it is
	// non-nil every inbound message routes to it raw; otherwise messages
	// are treated as enveloped (unparseable ones are dropped, unknown
	// sessions buffered).
	legacy *runningFlow
	// flows holds active enveloped flows by session id.
	flows map[string]*runningFlow
	// sessions holds committed groups by session id (enveloped mode).
	sessions map[string]*Group
	// finished records the last attempt of completed sessions so straggler
	// messages are dropped rather than buffered forever.
	finished map[string]uint64
	// early buffers messages for sessions not started yet.
	early      map[string][]earlyMsg
	earlyCount int
}

// earlyMsg is a buffered de-enveloped message awaiting its flow.
type earlyMsg struct {
	msg     netsim.Message
	attempt uint64
}

// NewMachine constructs a member's protocol engine from its extracted GQ
// identity key. The meter may be nil for uninstrumented runs.
func NewMachine(cfg Config, sk *gq.PrivateKey, m *meter.Meter) (*Machine, error) {
	if cfg.Set == nil {
		return nil, errors.New("engine: nil parameter set")
	}
	if sk == nil {
		return nil, errors.New("engine: nil identity key")
	}
	// Attach the fixed-base tables for z_i = g^r and s_i = τ·S^c before
	// the machine serves traffic. Both calls are idempotent and
	// race-safe: the group table lives on the (process-shared) parameter
	// set, the response table on this member's identity key.
	cfg.Set.Schnorr.Precompute()
	sk.Precompute()
	return &Machine{
		cfg:      cfg,
		id:       sk.ID,
		sk:       sk,
		m:        m,
		flows:    map[string]*runningFlow{},
		sessions: map[string]*Group{},
		finished: map[string]uint64{},
		early:    map[string][]earlyMsg{},
	}, nil
}

// gvCacheSize bounds a machine's roster-verifier cache, so a long-lived
// member under churning membership holds a fixed amount of verifier
// state.
const gvCacheSize = 8

// rosterVerifier is one gvCache entry, keyed by the joined roster.
type rosterVerifier struct {
	key string
	gv  *gq.GroupVerifier
}

// claimBuilder returns the cached verifier for a roster, the finish
// phase's eq. 2 check, constructing it (identity digests, their product,
// its inverse — no fixed-base table) on first use and evicting the least
// recently used roster beyond gvCacheSize.
func (mc *Machine) claimBuilder(roster []string) (*gq.GroupVerifier, error) {
	key := strings.Join(roster, "\x00")
	mc.gvMu.Lock()
	defer mc.gvMu.Unlock()
	for i, e := range mc.gvCache {
		if e.key == key {
			copy(mc.gvCache[i:], mc.gvCache[i+1:])
			mc.gvCache[len(mc.gvCache)-1] = e
			return e.gv, nil
		}
	}
	gv, err := gq.NewClaimBuilder(gq.ParamsFrom(mc.cfg.Set.RSA), roster)
	if err != nil {
		return nil, err
	}
	if len(mc.gvCache) == gvCacheSize {
		mc.gvCache = append(mc.gvCache[:0], mc.gvCache[1:]...)
	}
	mc.gvCache = append(mc.gvCache, rosterVerifier{key, gv})
	return gv, nil
}

// SetBatchVerifier installs (or, with nil, clears) the host-level claim
// verifier the finish phase defers its GQ batch checks to. The caller
// must serialize it with flow processing (idgka.Member holds its machine
// lock); in-flight flows pick the new verifier up at their next finish.
func (mc *Machine) SetBatchVerifier(bv BatchVerifier) {
	mc.bv = bv
}

// ID returns the member's identity.
func (mc *Machine) ID() string { return mc.id }

// Meter returns the member's operation meter (may be nil).
func (mc *Machine) Meter() *meter.Meter { return mc.m }

// Group returns the most recently committed group view, or nil.
func (mc *Machine) Group() *Group { return mc.group }

// Session returns the committed group of one session id, or nil.
func (mc *Machine) Session(sid string) *Group { return mc.sessions[sid] }

// baseGroup resolves the committed group a dynamic flow re-keys: the
// registry entry of the named base session, or — when base is empty —
// the machine's most recently committed group (the single-group model of
// the legacy lockstep drivers). The returned group is the flow's
// snapshot: a concurrent commit replaces the registry entry but cannot
// switch keys under an in-flight flow.
func (mc *Machine) baseGroup(base string) (*Group, error) {
	g := mc.group
	if base != "" {
		g = mc.sessions[base]
	}
	if g == nil || g.Key == nil {
		if base != "" {
			return nil, fmt.Errorf("%w (no committed group under base session %q)", ErrNoSession, base)
		}
		return nil, ErrNoSession
	}
	return g, nil
}

// Key returns the current group key, or nil.
func (mc *Machine) Key() *big.Int {
	if mc.group == nil {
		return nil
	}
	return mc.group.Key
}

// start registers a new flow, runs its opening transitions, and replays
// any buffered early messages for the session.
func (mc *Machine) start(sid string, f flow) ([]Outbound, []Event, error) {
	rf := &runningFlow{sid: sid, f: f}
	if sid == "" {
		if mc.legacy != nil && !mc.legacy.done && !mc.legacy.failed {
			return nil, nil, errors.New("engine: a legacy flow is already active")
		}
		// Legacy mode feeds ALL inbound traffic raw into its one flow, so
		// an active enveloped flow would be starved of its messages (and
		// the legacy flow fed envelope bytes it cannot parse). Buffered
		// early enveloped traffic marks sessions peers have already
		// started, whose follow-up messages the legacy flow would consume.
		if len(mc.flows) > 0 {
			return nil, nil, fmt.Errorf("engine: cannot start a legacy flow while %d enveloped flow(s) are active", len(mc.flows))
		}
		if mc.earlyCount > 0 {
			return nil, nil, fmt.Errorf("engine: cannot start a legacy flow with %d buffered enveloped message(s) pending", mc.earlyCount)
		}
		mc.legacy = rf
	} else {
		if mc.legacy != nil && !mc.legacy.done && !mc.legacy.failed {
			return nil, nil, fmt.Errorf("engine: cannot start enveloped flow %q while a legacy flow is active", sid)
		}
		if old := mc.flows[sid]; old != nil {
			rf.attempt = old.attempt + 1
		} else if last, ok := mc.finished[sid]; ok {
			rf.attempt = last + 1
		}
		mc.flows[sid] = rf
		delete(mc.finished, sid)
	}
	outs, evts := mc.dispatch(rf, nil)
	// Replay buffered early messages of this attempt; keep later attempts
	// buffered and drop stale ones.
	if sid != "" {
		pending := mc.early[sid]
		delete(mc.early, sid)
		mc.earlyCount -= len(pending)
		for i := range pending {
			switch {
			case pending[i].attempt == rf.attempt:
				o, e := mc.dispatch(rf, &pending[i].msg)
				outs = append(outs, o...)
				evts = append(evts, e...)
			case pending[i].attempt > rf.attempt:
				mc.bufferEarly(sid, pending[i].msg, pending[i].attempt)
			}
		}
	}
	return mc.wrapOuts(rf, outs), evts, nil
}

// dispatch feeds one message (nil = pure advance) into a flow and
// post-processes completions and failures.
func (mc *Machine) dispatch(rf *runningFlow, msg *netsim.Message) ([]Outbound, []Event) {
	if rf.done || rf.failed {
		return nil, nil
	}
	if msg != nil {
		if err := rf.f.deliver(msg); err != nil {
			return nil, mc.failFlow(rf, err)
		}
	}
	outs, evts, err := rf.f.advance()
	if err != nil {
		return outs, append(evts, mc.failFlow(rf, err)...)
	}
	for i := range evts {
		evts[i].SID = rf.sid
		switch evts[i].Kind {
		case EventEstablished:
			rf.done = true
			mc.group = evts[i].Group
			mc.closeFlow(rf)
			if rf.sid != "" {
				mc.sessions[rf.sid] = evts[i].Group
			}
		case EventConfirmed:
			rf.done = true
			mc.closeFlow(rf)
		}
	}
	return outs, evts
}

// failFlow marks a flow failed, retires it (so stragglers are dropped
// and its state can be collected; a restart of the same sid gets a fresh
// attempt), and produces the failure event.
func (mc *Machine) failFlow(rf *runningFlow, err error) []Event {
	rf.failed = true
	mc.closeFlow(rf)
	return []Event{{Kind: EventFailed, SID: rf.sid, Err: err, Retryable: IsRetryable(err)}}
}

// maxFinishedRecords bounds the straggler-suppression cache: it holds one
// (sid, attempt) pair per retired session so late traffic is dropped
// rather than buffered. Evicting an old record is harmless — a straggler
// for it would merely be buffered (bounded) instead of dropped.
const maxFinishedRecords = 4096

// closeFlow retires a completed flow.
func (mc *Machine) closeFlow(rf *runningFlow) {
	if rf.sid == "" {
		if mc.legacy == rf {
			mc.legacy = nil
		}
		return
	}
	if mc.flows[rf.sid] == rf {
		delete(mc.flows, rf.sid)
		mc.recordFinished(rf.sid, rf.attempt)
	}
}

// recordFinished notes a retired (sid, attempt), evicting an arbitrary
// old record when the cache is full.
func (mc *Machine) recordFinished(sid string, attempt uint64) {
	if _, have := mc.finished[sid]; !have && len(mc.finished) >= maxFinishedRecords {
		for k := range mc.finished {
			if k != sid {
				delete(mc.finished, k)
				break
			}
		}
	}
	mc.finished[sid] = attempt
}

// Release drops the committed group view (and any leftover buffered
// traffic) of a completed session. Long-lived machines running many
// sessions call it once the application has taken what it needs from
// Session(sid); the machine's primary group view and the straggler
// suppression record are retained.
func (mc *Machine) Release(sid string) {
	delete(mc.sessions, sid)
	mc.earlyCount -= len(mc.early[sid])
	delete(mc.early, sid)
}

// Buffered reports the number of early-buffered messages the machine
// holds for one session id (diagnostics; tests assert teardown paths
// leave nothing behind).
func (mc *Machine) Buffered(sid string) int { return len(mc.early[sid]) }

// ActiveFlow reports whether a flow is currently running under sid.
func (mc *Machine) ActiveFlow(sid string) bool {
	_, ok := mc.flows[sid]
	return ok
}

// Abort discards the flow (and any buffered traffic) of a session, e.g.
// between retransmission attempts. The aborted attempt number is
// retired, so a subsequent Start of the same session id uses a fresh
// attempt and in-flight traffic of the aborted run cannot poison it.
// Aborting the legacy flow uses sid "".
func (mc *Machine) Abort(sid string) {
	if sid == "" {
		mc.legacy = nil
		return
	}
	if rf, ok := mc.flows[sid]; ok {
		if last, fin := mc.finished[sid]; !fin || rf.attempt > last {
			mc.recordFinished(sid, rf.attempt)
		}
	}
	delete(mc.flows, sid)
	mc.earlyCount -= len(mc.early[sid])
	delete(mc.early, sid)
}

// wrapOuts prefixes outbound payloads with the session envelope when the
// flow runs in enveloped mode.
func (mc *Machine) wrapOuts(rf *runningFlow, outs []Outbound) []Outbound {
	if rf.sid == "" {
		return outs
	}
	for i := range outs {
		env := wire.NewBuffer().PutString(rf.sid).PutUint(rf.attempt).Bytes()
		outs[i].Payload = append(env, outs[i].Payload...)
		outs[i].SID = rf.sid
	}
	return outs
}

// EnvelopeSID peeks the session id out of an enveloped payload without
// consuming it, or "" for legacy-mode and non-engine payloads. Serve
// layers use it to map an inbound packet to the session it can complete.
func EnvelopeSID(payload []byte) string {
	r := wire.NewReader(payload)
	sid := r.String()
	if r.Err() != nil {
		return ""
	}
	return sid
}

// Step ingests one delivered message and returns the member's reaction:
// zero or more outbound messages plus lifecycle events. Unknown session
// ids are buffered until the flow starts; stale traffic (completed
// sessions, superseded attempts) is dropped silently.
func (mc *Machine) Step(msg netsim.Message) ([]Outbound, []Event) {
	if msg.Type == netsim.TypePeerDown {
		// Control traffic from a failure-aware medium, not a protocol
		// message: intercept before flow routing (a legacy flow would be
		// fed bytes it cannot parse) and surface it as a lifecycle event.
		return nil, []Event{{Kind: EventPeerDown, Peer: msg.From}}
	}
	if mc.legacy != nil {
		rf := mc.legacy
		outs, evts := mc.dispatch(rf, &msg)
		return mc.wrapOuts(rf, outs), evts
	}
	r := wire.NewReader(msg.Payload)
	sid := r.String()
	attempt := r.Uint()
	if r.Err() != nil || sid == "" {
		return nil, nil // not an enveloped engine message; drop
	}
	inner := msg
	inner.Payload = msg.Payload[len(msg.Payload)-r.Remaining():]
	rf, ok := mc.flows[sid]
	if !ok {
		if last, fin := mc.finished[sid]; fin && attempt <= last {
			return nil, nil // straggler of a completed session
		}
		mc.bufferEarly(sid, inner, attempt)
		return nil, nil
	}
	if attempt < rf.attempt {
		return nil, nil // stale attempt
	}
	if attempt > rf.attempt {
		mc.bufferEarly(sid, inner, attempt)
		return nil, nil
	}
	outs, evts := mc.dispatch(rf, &inner)
	return mc.wrapOuts(rf, outs), evts
}

// bufferEarly queues a de-enveloped message for a session that has not
// started (or an attempt not reached) yet, bounded by maxEarlyBuffer.
func (mc *Machine) bufferEarly(sid string, msg netsim.Message, attempt uint64) {
	if mc.earlyCount >= maxEarlyBuffer {
		// Evict the oldest buffered message of the largest backlog.
		var victim string
		for s, q := range mc.early {
			if victim == "" || len(q) > len(mc.early[victim]) {
				victim = s
			}
		}
		if victim != "" && len(mc.early[victim]) > 0 {
			mc.early[victim] = mc.early[victim][1:]
			mc.earlyCount--
		}
	}
	mc.early[sid] = append(mc.early[sid], earlyMsg{msg: msg, attempt: attempt})
	mc.earlyCount++
}

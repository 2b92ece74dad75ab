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
// started yet are buffered and replayed when the flow starts, and the
// machine passes a flow only the first delivery of each (type, sender)
// pair, so no flow tracks duplicates itself.
//
// The initial GKA and Leave/Partition are one ring flow: Leave/Partition
// is the initial GKA run over the contracted ring, seeded from the base
// group, with only the refreshing members drawing fresh exponents.
// StartInitial runs it with every member refreshing under
// MsgRound1/MsgRound2; StartPartition runs it under MsgLeave1/MsgLeave2.
//
// Every payload a machine emits or routes to a flow is enveloped: prefixed
// with the session id and an attempt counter (Envelope, OpenEnvelope), so
// one machine can demultiplex any number of concurrent sessions, and no
// flow starts without a session id. The paper's radio messages carry no
// envelope; the lockstep drivers of internal/core model that radio by
// stripping the envelope before a message reaches the simulated medium
// and restoring it on delivery, so the paper-comparable byte accounting
// is exact.
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
// recently committed group, the single-group model the lockstep drivers
// use.
package engine

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

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

// protocolMsg reports whether typ labels an engine protocol message. No
// flow reads any other type, so the machine drops such traffic before its
// duplicate filter would record it. TestProtocolMsgCoversEveryType keeps
// the list in step with the Msg* constants above.
func protocolMsg(typ string) bool {
	switch typ {
	case MsgRound1, MsgRound2, MsgJoin1, MsgJoinCtl, MsgJoinLast, MsgJoinFwd,
		MsgLeave1, MsgLeave2, MsgMerge1, MsgMerge2, MsgMerge3, MsgConfirm:
		return true
	}
	return false
}

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

// Outbound is one message a machine wants delivered. An empty To means
// broadcast. StateLen marks the trailing bytes of the payload that carry
// session-state transfer (metered separately from protocol traffic). SID
// names the session the outbound belongs to — the same id already carried
// in the payload envelope, surfaced so routing layers can hand the message
// to the owning session handle without parsing the payload; it is never
// empty and never serialized.
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
	// seen records the (type, sender) pairs delivered to this attempt.
	// Every protocol message is sent once per sender, so a repeat is a
	// duplicate broadcast and the first delivery wins.
	seen map[deliveryKey]bool
}

// deliveryKey keys the duplicate filter of a running flow.
type deliveryKey struct{ typ, from string }

// Machine is the per-member protocol engine. It is not safe for concurrent
// use on its own: callers serialize access per machine — the public
// idgka.Member does so with its member mutex (making the Session API
// goroutine-safe), the lockstep drivers by construction.
type Machine struct {
	cfg Config
	id  string
	sk  *gq.PrivateKey
	m   *meter.Meter

	// group is the most recently committed group view (nil before the
	// first establishment). Lockstep drivers and single-group applications
	// read it directly; multi-session applications use Session(sid).
	group *Group

	// flows holds active flows by session id.
	flows map[string]*runningFlow
	// sessions holds committed groups by session id.
	sessions map[string]*Group
	// finished records the last attempt of completed sessions so straggler
	// messages are dropped rather than buffered forever.
	finished map[string]uint64
	// early buffers messages for sessions not started yet; a session id
	// is a key only while its queue is non-empty. earlyCount is the
	// number of buffered messages, earlyMulti the number of queues that
	// hold more than one.
	early      map[string][]earlyMsg
	earlyCount int
	earlyMulti int
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

// ID returns the member's identity.
func (mc *Machine) ID() string { return mc.id }

// Meter returns the member's operation meter (may be nil).
func (mc *Machine) Meter() *meter.Meter { return mc.m }

// Retries returns the member's retransmission budget per flow
// (Config.MaxRetries, defaulted).
func (mc *Machine) Retries() int {
	if mc.cfg.MaxRetries <= 0 {
		return 2
	}
	return mc.cfg.MaxRetries
}

// Group returns the most recently committed group view, or nil.
func (mc *Machine) Group() *Group { return mc.group }

// Session returns the committed group of one session id, or nil.
func (mc *Machine) Session(sid string) *Group { return mc.sessions[sid] }

// baseGroup resolves the committed group a dynamic flow re-keys: the
// registry entry of the named base session, or — when base is empty —
// the machine's most recently committed group (the single-group model of
// the lockstep drivers). The returned group is the flow's
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
	if sid == "" {
		return nil, nil, errors.New("engine: empty session id")
	}
	rf := &runningFlow{sid: sid, f: f, seen: map[deliveryKey]bool{}}
	if old := mc.flows[sid]; old != nil {
		rf.attempt = old.attempt + 1
	} else if last, ok := mc.finished[sid]; ok {
		rf.attempt = last + 1
	}
	mc.flows[sid] = rf
	delete(mc.finished, sid)
	outs, evts := mc.dispatch(rf, nil)
	// Replay buffered early messages of this attempt; keep later attempts
	// buffered and drop stale ones.
	pending := mc.takeEarly(sid)
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
	return mc.wrapOuts(rf, outs), evts, nil
}

// dispatch feeds one message (nil = pure advance) into a flow and
// post-processes completions and failures. Stray message types and
// duplicate deliveries never reach the flow.
func (mc *Machine) dispatch(rf *runningFlow, msg *netsim.Message) ([]Outbound, []Event) {
	if rf.done || rf.failed {
		return nil, nil
	}
	if msg != nil {
		k := deliveryKey{msg.Type, msg.From}
		if !protocolMsg(msg.Type) || rf.seen[k] {
			return nil, nil
		}
		rf.seen[k] = true
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
			mc.sessions[rf.sid] = evts[i].Group
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
	mc.takeEarly(sid)
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
func (mc *Machine) Abort(sid string) {
	if rf, ok := mc.flows[sid]; ok {
		if last, fin := mc.finished[sid]; !fin || rf.attempt > last {
			mc.recordFinished(sid, rf.attempt)
		}
	}
	delete(mc.flows, sid)
	mc.takeEarly(sid)
}

// wrapOuts stamps every outbound of a flow with its session: the
// envelope on the payload and the SID field. It is the only way an
// Outbound leaves a Machine.
func (mc *Machine) wrapOuts(rf *runningFlow, outs []Outbound) []Outbound {
	for i := range outs {
		outs[i].Payload = Envelope(rf.sid, rf.attempt, outs[i].Payload)
		outs[i].SID = rf.sid
	}
	return outs
}

// Envelope prefixes a flow message body with its session envelope: the
// session id and the attempt counter.
func Envelope(sid string, attempt uint64, body []byte) []byte {
	return append(wire.NewBuffer().PutString(sid).PutUint(attempt).Bytes(), body...)
}

// errNoEnvelope rejects a payload that is not an engine message.
var errNoEnvelope = errors.New("engine: payload carries no session envelope")

// OpenEnvelope splits an enveloped payload into its session id, attempt
// counter and body; the body aliases payload. A payload too short for an
// envelope, or one naming the empty session id, is not an engine message.
func OpenEnvelope(payload []byte) (sid string, attempt uint64, body []byte, err error) {
	r := wire.NewReader(payload)
	sid, attempt = r.String(), r.Uint()
	if r.Err() != nil || sid == "" {
		return "", 0, nil, errNoEnvelope
	}
	return sid, attempt, payload[len(payload)-r.Remaining():], nil
}

// EnvelopeSID peeks the session id out of an enveloped payload without
// consuming it, or "" for a payload that is not an engine message. Serve
// layers use it to map an inbound packet to the session it can complete.
func EnvelopeSID(payload []byte) string {
	sid, _, _, err := OpenEnvelope(payload)
	if err != nil {
		return ""
	}
	return sid
}

// Step ingests one delivered message and returns the member's reaction:
// zero or more outbound messages plus lifecycle events. Unknown session
// ids are buffered until the flow starts; stale traffic (completed
// sessions, superseded attempts) and payloads that are not enveloped are
// dropped silently.
func (mc *Machine) Step(msg netsim.Message) ([]Outbound, []Event) {
	if msg.Type == netsim.TypePeerDown {
		// Control traffic from a failure-aware medium, not a protocol
		// message: surface it as a lifecycle event.
		return nil, []Event{{Kind: EventPeerDown, Peer: msg.From}}
	}
	sid, attempt, body, err := OpenEnvelope(msg.Payload)
	if err != nil {
		return nil, nil
	}
	msg.Payload = body
	rf, ok := mc.flows[sid]
	if !ok {
		if last, fin := mc.finished[sid]; fin && attempt <= last {
			return nil, nil // straggler of a completed session
		}
		mc.bufferEarly(sid, msg, attempt)
		return nil, nil
	}
	if attempt < rf.attempt {
		return nil, nil // stale attempt
	}
	if attempt > rf.attempt {
		mc.bufferEarly(sid, msg, attempt)
		return nil, nil
	}
	outs, evts := mc.dispatch(rf, &msg)
	return mc.wrapOuts(rf, outs), evts
}

// bufferEarly queues a de-enveloped message for a session that has not
// started (or an attempt not reached) yet, bounded by maxEarlyBuffer.
func (mc *Machine) bufferEarly(sid string, msg netsim.Message, attempt uint64) {
	if mc.earlyCount >= maxEarlyBuffer {
		mc.evictEarly()
	}
	mc.early[sid] = append(mc.early[sid], earlyMsg{msg: msg, attempt: attempt})
	mc.earlyCount++
	if len(mc.early[sid]) == 2 {
		mc.earlyMulti++
	}
}

// evictEarly discards the oldest buffered message of the largest
// backlog. While no queue holds more than one message, the first queue
// found is a largest one, so a spray of one-message sessions costs no
// scan.
func (mc *Machine) evictEarly() {
	var victim string
	most := 0
	for s, q := range mc.early {
		if len(q) > most {
			victim, most = s, len(q)
			if mc.earlyMulti == 0 {
				break
			}
		}
	}
	if most <= 1 {
		mc.takeEarly(victim)
		return
	}
	q := mc.early[victim]
	q[0] = earlyMsg{} // release the evicted payload
	mc.early[victim] = q[1:]
	mc.earlyCount--
	if most == 2 {
		mc.earlyMulti--
	}
}

// takeEarly removes and returns the messages buffered for one session.
func (mc *Machine) takeEarly(sid string) []earlyMsg {
	q := mc.early[sid]
	delete(mc.early, sid)
	mc.earlyCount -= len(q)
	if len(q) > 1 {
		mc.earlyMulti--
	}
	return q
}

package idgka

import (
	"errors"
	"fmt"
	"time"

	"idgka/internal/engine"
	"idgka/internal/mathx"
	"idgka/internal/metrics"
	"idgka/internal/netsim"
)

// The engine runtime's process-wide metrics; documented in
// docs/OPERATIONS.md.
var (
	mRetries  = metrics.NewCounter("engine_retries_total")
	mRestarts = metrics.NewCounter("engine_restarts_total")
	mTimeouts = metrics.NewCounter("engine_timeouts_total")
)

// ErrSessionTimeout classifies sessions failed by an expired deadline with
// no retransmission budget left; match with errors.Is on Session.Err.
var ErrSessionTimeout = errors.New("idgka: session deadline exceeded")

// PeerDownPacket builds the control packet a failure-aware medium injects
// when a peer dies (the TCP transport and netsim.Async do this on
// disconnect/crash). Applications that own their routing can synthesize it
// from their own failure detector and feed it through any session handle:
// the member records the death, fires the SetPeerDownHandler hook, and the
// packet is never treated as protocol traffic.
func PeerDownPacket(peer string) Packet {
	return Packet{From: peer, Type: netsim.TypePeerDown}
}

// Packet is one protocol message as routed by an event-driven deployment.
// An empty To means broadcast to every group member. StateLen marks the
// trailing payload bytes that carry session-state transfer (metered
// separately from protocol traffic by the built-in media).
type Packet struct {
	From     string
	To       string
	Type     string
	Payload  []byte
	StateLen int
}

// Session is a member's event-driven handle on one protocol run,
// identified by a caller-chosen session id. Unlike the lockstep helpers
// (Establish, Join, ...), a Session never touches a shared network object:
// the application routes messages itself — feed inbound packets to
// HandleMessage, transmit whatever Outbox returns, and watch Done. One
// member can run any number of concurrent sessions; out-of-order and
// duplicated deliveries are tolerated, and an inbound packet may be fed
// through ANY of the member's session handles — the wire envelope names
// the session, so both completions AND outbound reactions are routed to
// the owning handle even when another handle stepped the machine.
//
// Sessions are safe for concurrent use: HandleMessage, Outbox, Tick and
// Close (and every other method) may be called from any goroutine; the
// member's mutex serializes the underlying machine. Handles of DIFFERENT
// members never contend.
//
//	sess, _ := alice.NewSession("room-7", roster)
//	for !sess.Done() {
//	    for _, p := range sess.Outbox() {
//	        transportSend(p)   // application-owned routing
//	    }
//	    if err := sess.HandleMessage(transportRecv()); err != nil {
//	        return err         // protocol failure; Done() is now true
//	    }
//	}
//	for _, p := range sess.Outbox() {
//	    transportSend(p)       // the final reaction can commit AND emit
//	}
//	key := sess.Key()
type Session struct {
	mb  *Member
	sid string

	// All fields below are guarded by mb.mu.
	//gkalint:guard mb.mu
	outbox []Packet
	done   bool
	closed bool
	err    error
	// Terminal results, cached when the flow commits: the committed
	// group key (the zero Scalar before then) and ring.
	key    mathx.Scalar
	roster []string

	// Timeout/retransmit runtime (see SetDeadline and Tick). start
	// re-drives the flow's opening transitions under a fresh attempt
	// number; retryArmed marks a pending engine.Retryable failure;
	// attempts counts restarts against the member's MaxRetries budget.
	start      func() ([]engine.Outbound, []engine.Event, error)
	deadline   time.Time
	retryArmed bool
	attempts   int
}

// ingestResult carries the side effects of an ingestLocked call that must
// happen after the member lock is released: peer-down handler invocations
// (the handler may call back into the member) and — for member-level
// HandlePacket ingestion — the reaction packets handed back to the caller.
type ingestResult struct {
	reactions []Packet
	downFns   []func(string)
	downPeers []string
}

// fire invokes the collected peer-down handlers; call it only after the
// member lock has been released.
//
//gkalint:callback
func (r *ingestResult) fire() {
	for i, fn := range r.downFns {
		fn(r.downPeers[i])
	}
}

// ingestLocked folds machine reactions into member/session state; the
// caller holds mb.mu. Outbound packets are routed to the handle owning
// their session id — the stepping handle is only the fallback for flows
// run outside the Session API. With a nil stepping handle (member-level HandlePacket), ALL outbounds are
// returned in the result for the caller to transmit. Lifecycle events are
// always routed to the handle owning their session id.
func (mb *Member) ingestLocked(stepping *Session, outs []engine.Outbound, evts []engine.Event) ingestResult {
	var res ingestResult
	for _, o := range outs {
		pkt := Packet{
			From: mb.mach.ID(), To: o.To, Type: o.Type, Payload: o.Payload, StateLen: o.StateLen,
		}
		if stepping == nil {
			res.reactions = append(res.reactions, pkt)
			continue
		}
		target := stepping
		if o.SID != target.sid {
			if owner := mb.sessions[o.SID]; owner != nil {
				// The reaction belongs to a different live session: append
				// it to the OWNING handle's outbox. Leaving it on the
				// stepping handle would strand it once that handle reports
				// Done and the application stops draining it.
				target = owner
			}
		}
		target.outbox = append(target.outbox, pkt)
	}
	for _, ev := range evts {
		if ev.Kind == engine.EventPeerDown {
			// Member-level, not session-level: record the death and defer
			// the application hook (which typically launches LeaveSession
			// over every group shared with the dead peer) until the lock
			// is released.
			if fn := mb.notePeerDownLocked(ev.Peer); fn != nil {
				res.downFns = append(res.downFns, fn)
				res.downPeers = append(res.downPeers, ev.Peer)
			}
			continue
		}
		target := mb.sessions[ev.SID]
		if target == nil {
			if stepping != nil && ev.SID == stepping.sid {
				target = stepping
			} else {
				continue // a flow this member runs outside the Session API
			}
		}
		switch ev.Kind {
		case engine.EventEstablished, engine.EventConfirmed:
			target.done = true
			if ev.Group != nil {
				// Establishment commits ev.Group; confirmation carries the
				// flow's snapshot of the confirmed group.
				target.key = ev.Group.Key
				target.roster = append([]string(nil), ev.Group.Roster...)
			}
			// Terminal: cache the results above and drop the handle
			// registry entry. The machine-side group stays registered
			// under the sid — it is the base for later dynamic sessions —
			// until the application calls Close.
			// (The engine fires at most one terminal event per flow.)
			delete(mb.sessions, target.sid)
		case engine.EventFailed:
			if ev.Retryable && target.start != nil && target.attempts < mb.mach.Retries() {
				// The paper's "all members retransmit again" signal: the
				// engine already retired the failed attempt, so instead of
				// failing terminally, arm the retransmit scheduler — the
				// next Tick re-drives the flow under a fresh attempt
				// number. Buffered traffic of peers that already moved to
				// the new attempt stays queued and is replayed on restart.
				target.retryArmed = true
				mRetries.Inc()
				continue
			}
			// A failed flow is terminal too: Done must release the
			// application's routing loop, with Err/Key telling success
			// from failure. Teardown matches Tick's budget-exhausted path,
			// so no live flow or buffered traffic of the dead session
			// lingers in the machine.
			target.done = true
			target.teardownLocked()
			if target.err == nil {
				target.err = ev.Err
				if target.err == nil {
					target.err = fmt.Errorf("idgka: session %q failed", target.sid)
				}
			}
		}
	}
	return res
}

// newHandle registers a session handle and runs the flow's opening
// transitions, unregistering again if the start is rejected.
func (mb *Member) newHandle(sid string,
	start func() ([]engine.Outbound, []engine.Event, error)) (*Session, error) {
	if sid == "" {
		return nil, errors.New("idgka: session id must be non-empty")
	}
	s := &Session{mb: mb, sid: sid, start: start}
	mb.mu.Lock()
	if mb.sessions == nil {
		mb.sessions = map[string]*Session{}
	}
	prev := mb.sessions[sid]
	mb.sessions[sid] = s
	outs, evts, err := start()
	if err != nil {
		if prev != nil {
			mb.sessions[sid] = prev
		} else {
			delete(mb.sessions, sid)
		}
		mb.mu.Unlock()
		return nil, err
	}
	res := mb.ingestLocked(s, outs, evts)
	mb.mu.Unlock()
	res.fire()
	return s, nil
}

// NewSession starts the two-round authenticated establishment of the
// paper's Section 4 as an event-driven session. roster is the ring order
// (roster[0] is the trusted controller) and must contain this member; sid
// names the session on the wire and must be shared by all participants.
//
// The committed group stays registered under sid inside the member's
// machine, so later dynamic sessions (JoinSession, LeaveSession,
// MergeSession, ConfirmSession) can name it as their base. Call Close
// once a group has been superseded or is no longer needed, so long-lived
// members do not accumulate per-session state.
func (mb *Member) NewSession(sid string, roster []string) (*Session, error) {
	return mb.newHandle(sid, func() ([]engine.Outbound, []engine.Event, error) {
		return mb.mach.StartInitial(sid, roster)
	})
}

// JoinSession starts the paper's three-round Join protocol as an
// event-driven session, admitting joiner into the group committed under
// the base session. Every existing member starts the flow naming its
// committed base session (oldRoster may be nil — it is then taken from
// the base group's ring — or passed explicitly as a cross-check); the
// joining node itself (mb.ID() == joiner) holds no base session, passes
// base == "" and must supply the group's current ring via oldRoster. The
// extended group commits under sid, which becomes a valid base for later
// dynamic sessions.
func (mb *Member) JoinSession(sid, base string, oldRoster []string, joiner string) (*Session, error) {
	if mb.ID() != joiner && base == "" {
		// The base must be explicit: an empty base would fall back to the
		// machine's most recently committed group — exactly the recency
		// aliasing the per-session registry exists to prevent.
		return nil, errors.New("idgka: JoinSession needs a base session id (only the joiner passes an empty base)")
	}
	return mb.newHandle(sid, func() ([]engine.Outbound, []engine.Event, error) {
		// Snapshot the base ring under the member lock on the first start;
		// restarts reuse the snapshot so a concurrent re-key cannot switch
		// rings between attempts.
		if mb.ID() != joiner && oldRoster == nil {
			g := mb.mach.Session(base)
			if g == nil {
				return nil, nil, fmt.Errorf("idgka: no committed session %q to join onto", base)
			}
			oldRoster = append([]string(nil), g.Roster...)
		}
		return mb.mach.StartJoin(sid, base, oldRoster, joiner)
	})
}

// LeaveSession starts the paper's two-round Leave/Partition protocol as
// an event-driven session, evicting leavers from the group committed
// under the base session. Every survivor starts the same flow with the
// same leaver set; the contracted ring and the refresh set are derived
// deterministically from the base group's state, so all survivors agree
// without a coordinator. The re-keyed group commits under sid.
func (mb *Member) LeaveSession(sid, base string, leavers []string) (*Session, error) {
	if base == "" {
		return nil, errors.New("idgka: LeaveSession needs a base session id")
	}
	var newRoster, refresh []string
	planned := false
	return mb.newHandle(sid, func() ([]engine.Outbound, []engine.Event, error) {
		// Plan under the member lock on the first start; restarts reuse
		// the plan (the base group snapshot is immutable anyway).
		if !planned {
			g := mb.mach.Session(base)
			if g == nil {
				return nil, nil, fmt.Errorf("idgka: no committed session %q to leave from", base)
			}
			var err error
			newRoster, refresh, err = engine.PlanLeave(g, leavers)
			if err != nil {
				return nil, nil, err
			}
			planned = true
		}
		return mb.mach.StartPartition(sid, base, newRoster, refresh)
	})
}

// MergeSession starts the paper's three-round Merge protocol as an
// event-driven session, fusing the groups with rings rosterA and rosterB
// into one keyed group with ring A‖B. Every member of both groups starts
// the same flow with identical rosters, each naming its own ring's
// committed session as base. The merged group commits under sid.
func (mb *Member) MergeSession(sid, base string, rosterA, rosterB []string) (*Session, error) {
	if base == "" {
		return nil, errors.New("idgka: MergeSession needs a base session id")
	}
	return mb.newHandle(sid, func() ([]engine.Outbound, []engine.Event, error) {
		return mb.mach.StartMerge(sid, base, rosterA, rosterB)
	})
}

// ConfirmSession starts an explicit key-confirmation round over the
// group committed under the base session: every member broadcasts
// H(key ‖ id ‖ roster) and checks every peer's digest. On success the
// handle's Key and Roster report the confirmed group.
func (mb *Member) ConfirmSession(sid, base string) (*Session, error) {
	if base == "" {
		return nil, errors.New("idgka: ConfirmSession needs a base session id")
	}
	return mb.newHandle(sid, func() ([]engine.Outbound, []engine.Event, error) {
		return mb.mach.StartConfirm(sid, base)
	})
}

// HandlePacket feeds one delivered packet into the member's protocol
// machine at member level — no session handle needed. It is the inbound
// entry point for serve layers (internal/serve) that demultiplex a whole
// transport inbox: the wire envelope routes the packet to its flow, and
// lifecycle events still complete the owning Session handles (Done, Err,
// Key). Unlike Session.HandleMessage, the reaction packets are RETURNED
// for the caller to transmit instead of being appended to per-session
// outboxes; a session's Outbox then only ever carries its own start and
// Tick-restart traffic. Use either ingestion style per member, not both,
// or be prepared to drain both paths.
func (mb *Member) HandlePacket(p Packet) []Packet {
	mb.mu.Lock()
	outs, evts := mb.mach.Step(netsim.Message{
		From: p.From, To: p.To, Type: p.Type, Payload: p.Payload,
	})
	res := mb.ingestLocked(nil, outs, evts)
	mb.mu.Unlock()
	res.fire()
	return res.reactions
}

// SID returns the caller-chosen session id this handle was started under.
func (s *Session) SID() string { return s.sid }

// HandleMessage feeds one delivered packet into the member's protocol
// machine. Reactions appear in the owning session's Outbox; completion in
// Done. Messages of other concurrent sessions are routed internally and
// never an error.
func (s *Session) HandleMessage(p Packet) error {
	s.mb.mu.Lock()
	outs, evts := s.mb.mach.Step(netsim.Message{
		From: p.From, To: p.To, Type: p.Type, Payload: p.Payload,
	})
	res := s.mb.ingestLocked(s, outs, evts)
	err := s.err
	s.mb.mu.Unlock()
	res.fire()
	return err
}

// Outbox drains and returns the messages the member wants transmitted.
func (s *Session) Outbox() []Packet {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	out := s.outbox
	s.outbox = nil
	return out
}

// Done reports whether the session has reached a terminal state —
// either committed (Key non-nil) or failed (Err non-nil).
func (s *Session) Done() bool {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	return s.done
}

// Err returns the session's failure, if any.
func (s *Session) Err() error {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	return s.err
}

// Key returns the established session key material, or nil before Done
// (and nil after a failure): the key's big-endian bytes, fresh on every
// call.
func (s *Session) Key() []byte {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	if s.key.Order() == nil {
		return nil
	}
	return s.key.BigVarTime().Bytes()
}

// Roster returns the committed ring of this session, or nil before Done.
func (s *Session) Roster() []string {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	return append([]string(nil), s.roster...)
}

// SetDeadline arms a one-shot deadline: the first Tick at or past t either
// retransmits the flow (when budget remains — a deadline expiry is treated
// as lost traffic) or fails the session with ErrSessionTimeout. Restarts
// clear the deadline; re-arm it after draining the restart's Outbox. The
// zero time disarms.
func (s *Session) SetDeadline(t time.Time) {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	s.deadline = t
}

// Attempts reports how many retransmission restarts the session has
// consumed (bounded by Config.MaxRetries).
func (s *Session) Attempts() int {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	return s.attempts
}

// Tick drives the session's timeout/retransmit runtime and must be called
// periodically with the current time by the application's event loop (it
// is cheap when nothing is due). Two conditions trigger it: a pending
// engine.Retryable failure — the paper's "all members retransmit again"
// signal, armed by HandleMessage instead of failing the session — and an
// expired deadline (lost traffic, or a dead peer that will never answer).
// Either way the flow is re-driven under a fresh attempt number and the
// restart's opening messages appear in Outbox; peers restart their side by
// their own ticks, and stale traffic of superseded attempts is discarded
// by the engine. Once the MaxRetries budget is exhausted the session fails
// terminally: a retryable failure with its own error, an expired deadline
// with ErrSessionTimeout. Tick returns the session error, nil while the
// session is still live (or already committed).
func (s *Session) Tick(now time.Time) error {
	s.mb.mu.Lock()
	if s.done {
		defer s.mb.mu.Unlock()
		return s.err
	}
	if cur := s.mb.sessions[s.sid]; cur != s {
		// A newer handle reused the sid (the restart pattern Close's doc
		// endorses); this stale handle must not tear down — or re-drive —
		// the successor's flow. Fail it locally.
		s.done = true
		if s.err == nil {
			s.err = fmt.Errorf("idgka: session %q superseded by a newer handle", s.sid)
		}
		defer s.mb.mu.Unlock()
		return s.err
	}
	expired := !s.deadline.IsZero() && !now.Before(s.deadline)
	if !s.retryArmed && !expired {
		s.mb.mu.Unlock()
		return nil
	}
	if s.start == nil || s.attempts >= s.mb.mach.Retries() {
		s.done = true
		if s.err == nil {
			if expired {
				s.err = fmt.Errorf("idgka: session %q: %w", s.sid, ErrSessionTimeout)
				mTimeouts.Inc()
			} else {
				s.err = fmt.Errorf("idgka: session %q: retransmission budget exhausted", s.sid)
			}
		}
		s.teardownLocked()
		defer s.mb.mu.Unlock()
		return s.err
	}
	s.retryArmed = false
	s.deadline = time.Time{}
	s.attempts++
	mRestarts.Inc()
	// Restarting the same session id supersedes whatever attempt is still
	// in flight: the machine assigns attempt+1, replays any buffered
	// traffic peers already sent for it, and drops the stale attempt's.
	outs, evts, err := s.start()
	if err != nil {
		s.done = true
		s.err = err
		s.teardownLocked()
		defer s.mb.mu.Unlock()
		return s.err
	}
	res := s.mb.ingestLocked(s, outs, evts)
	err = s.err
	s.mb.mu.Unlock()
	res.fire()
	return err
}

// Close abandons a session that can no longer make progress (e.g. a peer
// died mid-establishment and the application timed out): the in-flight
// flow, its buffered traffic and the registry entry are discarded. On a
// completed session Close releases the machine-side group committed
// under this sid — call it once the group has been superseded by a later
// dynamic session (or is otherwise no longer needed), after which the
// sid can no longer serve as a base. Close is idempotent: repeated calls
// are no-ops, and cannot disturb a newer session reusing the id.
func (s *Session) Close() {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if !s.done {
		s.done = true
		if s.err == nil {
			s.err = fmt.Errorf("idgka: session %q closed", s.sid)
		}
	}
	// A newer handle may have been opened under the same sid since this
	// one completed; its flow and registry entry are not ours to discard.
	if cur := s.mb.sessions[s.sid]; cur != nil && cur != s {
		return
	}
	s.teardownLocked()
}

// teardownLocked retires the session from the member: the handle leaves
// the registry, and the machine discards the sid's in-flight flow, its
// buffered traffic and any group committed under it. The caller holds
// mb.mu.
func (s *Session) teardownLocked() {
	delete(s.mb.sessions, s.sid)
	s.mb.mach.Abort(s.sid)
	s.mb.mach.Release(s.sid)
}

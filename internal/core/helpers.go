package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// lockstepRuns numbers the driver-pumped flows of this process.
var lockstepRuns atomic.Uint64

// lockstepRun is one driver-pumped flow. Its session id is fresh per
// Run*/ConfirmKey call, so every member starts it at attempt 0; each
// retry moves every member to the next attempt. The simulated medium
// models the paper's radio, whose messages carry no session envelope:
// transmit strips the envelope off every outbound and pump restores it
// on delivery, so the medium carries, meters and fault-injects exactly
// the paper's bytes.
type lockstepRun struct {
	sid      string
	attempt  uint64
	stripped bool // attempt was read off an envelope of the current try
}

func newLockstepRun() *lockstepRun {
	return &lockstepRun{sid: "lockstep/" + strconv.FormatUint(lockstepRuns.Add(1), 10)}
}

// lockstepBase selects the machine's most recently committed group as a
// dynamic flow's base — the single-group model of the lockstep drivers,
// which run one group per machine.
const lockstepBase = ""

// starter begins one member's flow under a session id and returns its
// opening messages.
type starter func(mc *engine.Machine, sid string) ([]engine.Outbound, []engine.Event, error)

// errStalled marks an attempt in which the network went quiet before every
// member finished — e.g. a dropped broadcast; the paper's answer is "all
// members retransmit again".
var errStalled = fmt.Errorf("flow stalled: message lost before completion")

// maxSweeps is a livelock backstop far above any protocol's round count.
const maxSweeps = 1 << 10

// pump runs one try of the flow: sweep 0 starts it on every member, and
// each later sweep drains every member's inbox, steps the machines
// concurrently (one goroutine per member, as the nodes would compute in
// the field), then transmits whatever the machines emitted, until every
// machine commits. Sweep 0's drain discards stale traffic from earlier
// flows a member did not take part in (e.g. merge broadcasts that
// arrived while it sat attached to the medium but idle) or from an
// earlier try. Retryable protocol failures (verification failure, lost
// messages) surface as engine-retryable errors for the caller's
// retransmission loop. On ANY failure the members' in-flight flows are
// aborted, so a retry starts under the next attempt; either way the
// members release the run's session, whose committed group stays their
// current one.
func (run *lockstepRun) pump(net netsim.Medium, members []*engine.Machine, start starter) (err error) {
	defer func() {
		for _, mc := range members {
			if err != nil {
				mc.Abort(run.sid)
			}
			mc.Release(run.sid)
		}
	}()
	run.stripped = false
	n := len(members)
	outs := make([][]engine.Outbound, n)
	evts := make([][]engine.Event, n)
	errs := make([]error, n)
	done := make([]bool, n)
	inboxes := make([][]netsim.Message, n)
	for sweep := 0; sweep <= maxSweeps; sweep++ {
		total := 0
		for i, mc := range members {
			if inboxes[i], err = net.Recv(mc.ID()); err != nil {
				return err
			}
			total += len(inboxes[i])
		}
		if sweep > 0 && total == 0 {
			if allDone(done) {
				return nil
			}
			return engine.Retryable(errStalled)
		}
		forEach(members, func(i int, mc *engine.Machine) {
			if sweep == 0 {
				outs[i], evts[i], errs[i] = start(mc, run.sid)
				return
			}
			outs[i], evts[i], errs[i] = nil, nil, nil
			for _, msg := range inboxes[i] {
				msg.Payload = engine.Envelope(run.sid, run.attempt, msg.Payload)
				o, e := mc.Step(msg)
				outs[i] = append(outs[i], o...)
				evts[i] = append(evts[i], e...)
			}
		})
		if err := harvest(members, evts, errs, done); err != nil {
			return err
		}
		if err := run.transmit(net, members, outs); err != nil {
			return err
		}
	}
	return engine.Retryable(errStalled)
}

// runFlow pumps one flow over members. A retrying flow (the full re-key
// flows: initial, partition) runs inside the paper's retransmission loop:
// on a retryable failure every member aborts, and the flow restarts under
// the next attempt of the same session with fresh randomness, up to the
// controller's retry budget. The Join/Merge/Confirm flows cannot be
// retransmitted mid-flight: they change per-member state asymmetrically
// (e.g. the controller may commit the new key before a stall is
// detected), so re-running them against half-updated sessions cannot
// converge; any failure of theirs — including a protocol-retryable one —
// is surfaced stripped of the retryable marker, so callers are not
// invited into a doomed retry. Every precondition besides a non-empty
// member list (group sizes, an established base group, known leavers) is
// the engine's Start* check, which fails the first sweep before anything
// reaches the medium.
func runFlow(net netsim.Medium, members []*engine.Machine, start starter, what string, retrying bool) error {
	if len(members) == 0 {
		return fmt.Errorf("core: %s needs members", what)
	}
	retries := 0
	if retrying {
		retries = members[0].Retries()
	}
	run := newLockstepRun()
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if err = run.pump(net, members, start); err == nil || !engine.IsRetryable(err) {
			return err
		}
	}
	if !retrying {
		return fmt.Errorf("core: %s failed (not retryable mid-flight): %v", what, err)
	}
	return fmt.Errorf("core: %s failed after retries: %w", what, err)
}

// forEach runs fn concurrently for every member (one goroutine per node).
func forEach(members []*engine.Machine, fn func(int, *engine.Machine)) {
	var wg sync.WaitGroup
	for i, mc := range members {
		wg.Add(1)
		go func(i int, mc *engine.Machine) {
			defer wg.Done()
			fn(i, mc)
		}(i, mc)
	}
	wg.Wait()
}

// harvest folds per-member step results into the done set, preferring a
// retryable error over a fatal one when both occur in one phase (so the
// orchestrator re-runs rather than aborts).
func harvest(members []*engine.Machine, evts [][]engine.Event, errs []error, done []bool) error {
	var firstFatal error
	var retry error
	for i := range members {
		if errs[i] != nil {
			if engine.IsRetryable(errs[i]) {
				retry = errs[i]
			} else if firstFatal == nil {
				firstFatal = errs[i]
			}
			continue
		}
		for _, ev := range evts[i] {
			switch ev.Kind {
			case engine.EventEstablished, engine.EventConfirmed:
				done[i] = true
			case engine.EventFailed:
				if ev.Retryable {
					retry = engine.Retryable(ev.Err)
				} else if firstFatal == nil {
					firstFatal = ev.Err
				}
			}
		}
	}
	if retry != nil {
		return retry
	}
	return firstFatal
}

// transmit strips the session envelope off every emitted message and
// sends the bare payloads in member order (deterministic for the fault
// injector and the medium's traffic accounting). The try's first envelope
// fixes the attempt pump restores on delivery; an envelope naming another
// session or attempt is a driver bug and fails the run.
func (run *lockstepRun) transmit(net netsim.Medium, members []*engine.Machine, outs [][]engine.Outbound) error {
	for i, mc := range members {
		for j := range outs[i] {
			sid, attempt, body, err := engine.OpenEnvelope(outs[i][j].Payload)
			if err == nil && !run.stripped {
				run.attempt, run.stripped = attempt, true
			}
			if err != nil || sid != run.sid || attempt != run.attempt {
				return fmt.Errorf("core: driver bug: %s emitted a %s outside session %q attempt %d (%q, %d, %v)",
					mc.ID(), outs[i][j].Type, run.sid, run.attempt, sid, attempt, err)
			}
			outs[i][j].Payload = body
		}
		if err := engine.SendAll(net, mc.ID(), outs[i]); err != nil {
			return err
		}
	}
	return nil
}

func allDone(done []bool) bool {
	for _, d := range done {
		if !d {
			return false
		}
	}
	return true
}

// rosterOf extracts the identity ring from a member slice.
func rosterOf(members []*engine.Machine) []string {
	ids := make([]string, len(members))
	for i, mc := range members {
		ids[i] = mc.ID()
	}
	return ids
}

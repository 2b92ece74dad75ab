package idgka

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"idgka/internal/engine"
	"idgka/internal/wire"
)

// TestCrossSessionOutboxRouting: a wire delivery fed through one session
// handle whose reaction belongs to a DIFFERENT live session must appear in
// the owning handle's Outbox — not the stepping handle's. The regression
// scenario: two concurrent sessions share deliveries through one handle;
// that handle completes first, the application stops draining it, and the
// other session's reactions were silently stranded there.
func TestCrossSessionOutboxRouting(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	roster := []string{"or-01", "or-02"}
	a, err := auth.NewMember(roster[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := auth.NewMember(roster[1])
	if err != nil {
		t.Fatal(err)
	}

	// Complete the "fast" session first.
	saF, err := a.NewSession("fast", roster)
	if err != nil {
		t.Fatal(err)
	}
	sbF, err := b.NewSession("fast", roster)
	if err != nil {
		t.Fatal(err)
	}
	routePackets(t, map[string]*Session{roster[0]: saF, roster[1]: sbF})
	if !sbF.Done() || sbF.Key() == nil {
		t.Fatal("fast session did not complete")
	}

	// Start the "slow" session on both sides; park b's own opening
	// traffic so the flow is mid-establishment.
	saS, err := a.NewSession("slow", roster)
	if err != nil {
		t.Fatal(err)
	}
	sbS, err := b.NewSession("slow", roster)
	if err != nil {
		t.Fatal(err)
	}
	parked := sbS.Outbox()

	// Feed a's slow-session round 1 through b's COMPLETED fast handle.
	// b holds both round-1 contributions afterwards, so the machine
	// reacts with b's round 2 — which belongs to the slow session.
	for _, p := range saS.Outbox() {
		if err := sbF.HandleMessage(p); err != nil {
			t.Fatal(err)
		}
	}
	if leaked := sbF.Outbox(); len(leaked) != 0 {
		t.Fatalf("%d reaction(s) stranded on the completed stepping handle", len(leaked))
	}
	reaction := sbS.Outbox()
	if len(reaction) == 0 {
		t.Fatal("no reaction routed to the owning session's outbox")
	}

	// Completeness: deliver everything and check the slow session agrees.
	for _, p := range append(parked, reaction...) {
		if err := saS.HandleMessage(p); err != nil {
			t.Fatal(err)
		}
	}
	routePackets(t, map[string]*Session{roster[0]: saS, roster[1]: sbS})
	if saS.Key() == nil || !bytes.Equal(saS.Key(), sbS.Key()) {
		t.Fatal("slow session keys disagree after cross-handle routing")
	}
}

// TestTerminalFailureReleasesMachineState: a terminal EventFailed through
// HandleMessage must tear the machine down exactly like Tick's
// budget-exhausted path — no live flow, no buffered traffic and no
// committed view may linger under the dead session id.
func TestTerminalFailureReleasesMachineState(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewMemberWithConfig("tf-01", Config{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := alice.NewSession("tf", []string{"tf-01", "tf-02"})
	if err != nil {
		t.Fatal(err)
	}

	// Future-attempt traffic buffers inside the machine.
	future := wire.NewBuffer().PutString("tf").PutUint(9).Bytes()
	if err := s.HandleMessage(Packet{From: "tf-02", Type: engine.MsgRound1, Payload: append(future, 0x01)}); err != nil {
		t.Fatal(err)
	}
	if got := alice.mach.Buffered("tf"); got != 1 {
		t.Fatalf("future-attempt message not buffered: %d", got)
	}

	// First corrupt round 1: retryable, consumes the retransmit arm.
	env0 := wire.NewBuffer().PutString("tf").PutUint(0).Bytes()
	if err := s.HandleMessage(Packet{From: "tf-02", Type: engine.MsgRound1, Payload: append(env0, 0xde)}); err != nil {
		t.Fatalf("retryable failure surfaced as terminal: %v", err)
	}
	if err := s.Tick(time.Now()); err != nil || s.Attempts() != 1 {
		t.Fatalf("restart failed: %v (attempts %d)", err, s.Attempts())
	}
	s.Outbox()

	// Second corrupt round 1 exhausts MaxRetries=1: terminal failure.
	env1 := wire.NewBuffer().PutString("tf").PutUint(1).Bytes()
	err = s.HandleMessage(Packet{From: "tf-02", Type: engine.MsgRound1, Payload: append(env1, 0xde)})
	if err == nil || !s.Done() || s.Err() == nil {
		t.Fatalf("budget-exhausted failure not terminal: err=%v done=%v", err, s.Done())
	}

	mc := alice.mach
	if mc.ActiveFlow("tf") {
		t.Fatal("dead session still has a live flow in the machine")
	}
	if got := mc.Buffered("tf"); got != 0 {
		t.Fatalf("dead session still holds %d buffered message(s)", got)
	}
	if mc.Session("tf") != nil {
		t.Fatal("dead session still has a committed view registered")
	}
	if alice.sessions["tf"] != nil {
		t.Fatal("dead session still registered on the member")
	}
}

// TestTickStartErrorReleasesMachineState: when a Tick restart is rejected
// by the engine, the terminal teardown must clear buffered traffic too
// (same invariant as the terminal-failure path).
func TestTickStartErrorReleasesMachineState(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewMember("te-01")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	s, err := alice.newHandle("te", func() ([]engine.Outbound, []engine.Event, error) {
		calls++
		if calls > 1 {
			return nil, nil, fmt.Errorf("synthetic restart rejection")
		}
		return alice.mach.StartInitial("te", []string{"te-01", "te-02"})
	})
	if err != nil {
		t.Fatal(err)
	}
	future := wire.NewBuffer().PutString("te").PutUint(9).Bytes()
	if err := s.HandleMessage(Packet{From: "te-02", Type: engine.MsgRound1, Payload: append(future, 0x01)}); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s.SetDeadline(now)
	if err := s.Tick(now); err == nil || !s.Done() {
		t.Fatalf("rejected restart not terminal: %v", err)
	}
	if got := alice.mach.Buffered("te"); got != 0 {
		t.Fatalf("rejected restart left %d buffered message(s)", got)
	}
}

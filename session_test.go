package idgka

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"idgka/internal/engine"
	"idgka/internal/wire"
)

// routePackets delivers queued packets FIFO among the sessions until
// quiescence, fanning broadcasts to every other member.
func routePackets(t *testing.T, sessions map[string]*Session) {
	t.Helper()
	type delivery struct {
		to  string
		pkt Packet
	}
	var queue []delivery
	drain := func(id string, s *Session) {
		for _, p := range s.Outbox() {
			if p.To != "" {
				queue = append(queue, delivery{to: p.To, pkt: p})
				continue
			}
			for other := range sessions {
				if other != id {
					queue = append(queue, delivery{to: other, pkt: p})
				}
			}
		}
	}
	for id, s := range sessions {
		drain(id, s)
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		s := sessions[d.to]
		if err := s.HandleMessage(d.pkt); err != nil {
			t.Fatalf("session of %s failed: %v", d.to, err)
		}
		drain(d.to, s)
	}
}

// TestSessionEstablishment drives the event-driven public API with
// application-owned routing: no Network object, no lockstep driver.
func TestSessionEstablishment(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	roster := make([]string, n)
	members := make([]*Member, n)
	for i := 0; i < n; i++ {
		roster[i] = fmt.Sprintf("ev-%02d", i+1)
		members[i], err = auth.NewMember(roster[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	sessions := map[string]*Session{}
	for i, mb := range members {
		s, err := mb.NewSession("room-7", roster)
		if err != nil {
			t.Fatal(err)
		}
		sessions[roster[i]] = s
	}
	routePackets(t, sessions)

	key := sessions[roster[0]].Key()
	if key == nil {
		t.Fatal("no key established")
	}
	for _, id := range roster {
		s := sessions[id]
		if !s.Done() {
			t.Fatalf("%s not done", id)
		}
		if s.Err() != nil {
			t.Fatalf("%s: %v", id, s.Err())
		}
		if !bytes.Equal(s.Key(), key) {
			t.Fatalf("%s disagrees on the session key", id)
		}
		if got := s.Roster(); len(got) != n || got[0] != roster[0] {
			t.Fatalf("%s: roster %v", id, got)
		}
	}
	// The members' primary group view reflects the established session.
	for _, mb := range members {
		if !bytes.Equal(mb.GroupKey(), key) {
			t.Fatalf("%s: GroupKey does not match the session", mb.ID())
		}
	}
}

// TestSessionValidation covers constructor error paths.
func TestSessionValidation(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := auth.NewMember("solo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.NewSession("", []string{"solo", "x"}); err == nil {
		t.Fatal("empty session id accepted")
	}
	if _, err := mb.NewSession("s", []string{"solo"}); err == nil {
		t.Fatal("singleton roster accepted")
	}
	if _, err := mb.NewSession("s", []string{"a", "b"}); err == nil {
		t.Fatal("roster without the member accepted")
	}
}

// TestSessionDynamicLifecycle drives the full dynamic-membership API
// event-driven: establish, admit a joiner, confirm, evict a member —
// every phase with application-owned routing and no lockstep helper.
func TestSessionDynamicLifecycle(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	roster := []string{"d-01", "d-02", "d-03"}
	members := map[string]*Member{}
	for _, id := range append(append([]string(nil), roster...), "d-04") {
		if members[id], err = auth.NewMember(id); err != nil {
			t.Fatal(err)
		}
	}

	// Establish over the founders.
	est := map[string]*Session{}
	for _, id := range roster {
		if est[id], err = members[id].NewSession("est", roster); err != nil {
			t.Fatal(err)
		}
	}
	routePackets(t, est)
	key0 := est[roster[0]].Key()
	if key0 == nil {
		t.Fatal("establishment failed")
	}

	// Join: members derive the old ring from their base session (nil
	// roster); the joiner supplies it explicitly.
	join := map[string]*Session{}
	for _, id := range roster {
		if join[id], err = members[id].JoinSession("join", "est", nil, "d-04"); err != nil {
			t.Fatal(err)
		}
	}
	if join["d-04"], err = members["d-04"].JoinSession("join", "", roster, "d-04"); err != nil {
		t.Fatal(err)
	}
	routePackets(t, join)
	keyJ := join["d-04"].Key()
	if keyJ == nil || bytes.Equal(keyJ, key0) {
		t.Fatalf("join did not derive a fresh key")
	}
	for id, s := range join {
		if !bytes.Equal(s.Key(), keyJ) {
			t.Fatalf("%s disagrees on the post-join key", id)
		}
		if got := s.Roster(); len(got) != 4 || got[3] != "d-04" {
			t.Fatalf("%s: post-join roster %v", id, got)
		}
	}

	// Confirm the joined group; the handle reports the confirmed key.
	cfm := map[string]*Session{}
	for id := range join {
		if cfm[id], err = members[id].ConfirmSession("cfm", "join"); err != nil {
			t.Fatal(err)
		}
	}
	routePackets(t, cfm)
	for id, s := range cfm {
		if !s.Done() || s.Err() != nil {
			t.Fatalf("%s: confirm done=%v err=%v", id, s.Done(), s.Err())
		}
		if !bytes.Equal(s.Key(), keyJ) {
			t.Fatalf("%s: confirm reported a different key", id)
		}
	}

	// Leave: d-02 is evicted; every survivor derives the contracted ring
	// and refresh set locally from its base session.
	leave := map[string]*Session{}
	for _, id := range []string{"d-01", "d-03", "d-04"} {
		if leave[id], err = members[id].LeaveSession("leave", "join", []string{"d-02"}); err != nil {
			t.Fatal(err)
		}
	}
	routePackets(t, leave)
	keyL := leave["d-01"].Key()
	if keyL == nil || bytes.Equal(keyL, keyJ) {
		t.Fatal("leave did not derive a fresh key")
	}
	for id, s := range leave {
		if !bytes.Equal(s.Key(), keyL) {
			t.Fatalf("%s disagrees on the post-leave key", id)
		}
		for _, rid := range s.Roster() {
			if rid == "d-02" {
				t.Fatalf("%s still lists the evicted member", id)
			}
		}
	}
}

// TestSessionMerge fuses two independently established groups through the
// event-driven MergeSession API.
func TestSessionMerge(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	ringA := []string{"m-01", "m-02"}
	ringB := []string{"m-03", "m-04", "m-05"}
	members := map[string]*Member{}
	for _, id := range append(append([]string(nil), ringA...), ringB...) {
		if members[id], err = auth.NewMember(id); err != nil {
			t.Fatal(err)
		}
	}
	estA := map[string]*Session{}
	for _, id := range ringA {
		if estA[id], err = members[id].NewSession("est-a", ringA); err != nil {
			t.Fatal(err)
		}
	}
	routePackets(t, estA)
	estB := map[string]*Session{}
	for _, id := range ringB {
		if estB[id], err = members[id].NewSession("est-b", ringB); err != nil {
			t.Fatal(err)
		}
	}
	routePackets(t, estB)

	mrg := map[string]*Session{}
	for _, id := range ringA {
		if mrg[id], err = members[id].MergeSession("mrg", "est-a", ringA, ringB); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ringB {
		if mrg[id], err = members[id].MergeSession("mrg", "est-b", ringA, ringB); err != nil {
			t.Fatal(err)
		}
	}
	routePackets(t, mrg)
	key := mrg["m-01"].Key()
	if key == nil {
		t.Fatal("merge failed")
	}
	if bytes.Equal(key, estA["m-01"].Key()) || bytes.Equal(key, estB["m-03"].Key()) {
		t.Fatal("merge did not derive a fresh key")
	}
	for id, s := range mrg {
		if !bytes.Equal(s.Key(), key) {
			t.Fatalf("%s disagrees on the merged key", id)
		}
		if got := s.Roster(); len(got) != 5 || got[0] != "m-01" {
			t.Fatalf("%s: merged roster %v", id, got)
		}
	}
}

// TestSessionCrossRouting: with two concurrent sessions per member, a
// packet of session B fed through session A's handle must still complete
// session B's handle — the wire envelope, not the handle, names the flow.
func TestSessionCrossRouting(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	roster := []string{"x-01", "x-02", "x-03"}
	members := map[string]*Member{}
	for _, id := range roster {
		if members[id], err = auth.NewMember(id); err != nil {
			t.Fatal(err)
		}
	}
	sessA := map[string]*Session{}
	sessB := map[string]*Session{}
	for _, id := range roster {
		if sessA[id], err = members[id].NewSession("sess-a", roster); err != nil {
			t.Fatal(err)
		}
		if sessB[id], err = members[id].NewSession("sess-b", roster); err != nil {
			t.Fatal(err)
		}
	}
	// Route EVERYTHING through the sess-a handles only.
	type delivery struct {
		to  string
		pkt Packet
	}
	var queue []delivery
	drain := func(id string) {
		for _, s := range []*Session{sessA[id], sessB[id]} {
			for _, p := range s.Outbox() {
				for _, other := range roster {
					if other != id {
						queue = append(queue, delivery{to: other, pkt: p})
					}
				}
			}
		}
	}
	for _, id := range roster {
		drain(id)
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if err := sessA[d.to].HandleMessage(d.pkt); err != nil {
			t.Fatalf("%s: %v", d.to, err)
		}
		drain(d.to)
	}
	for _, id := range roster {
		if !sessA[id].Done() || !sessB[id].Done() {
			t.Fatalf("%s: done a=%v b=%v", id, sessA[id].Done(), sessB[id].Done())
		}
		if sessB[id].Key() == nil {
			t.Fatalf("%s: session B has no key despite routing via A", id)
		}
	}
	if bytes.Equal(sessA[roster[0]].Key(), sessB[roster[0]].Key()) {
		t.Fatal("concurrent sessions derived the same key")
	}
}

// TestSessionRetransmitRecovery exercises the timeout/retransmit runtime
// end to end: a corrupted round-1 message fails alice's flow with the
// engine's Retryable signal, which arms the retransmit scheduler instead
// of killing the session. Alice's Tick re-drives the flow under a fresh
// attempt; bob — wedged on the stale attempt — is restarted by his own
// deadline-driven Tick; both converge on one key, exactly the paper's
// "all members retransmit again" loop without a coordinator.
func TestSessionRetransmitRecovery(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	roster := []string{"rt-01", "rt-02"}
	alice, err := auth.NewMember(roster[0])
	if err != nil {
		t.Fatal(err)
	}
	bob, err := auth.NewMember(roster[1])
	if err != nil {
		t.Fatal(err)
	}
	sa, err := alice.NewSession("room-rt", roster)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := bob.NewSession("room-rt", roster)
	if err != nil {
		t.Fatal(err)
	}

	// A corrupted round-1 (valid session envelope, garbage protocol
	// payload) claiming to come from bob: alice's flow fails retryable.
	env := wire.NewBuffer().PutString("room-rt").PutUint(0).Bytes()
	bad := Packet{From: roster[1], Type: engine.MsgRound1, Payload: append(env, 0xde, 0xad)}
	if err := sa.HandleMessage(bad); err != nil {
		t.Fatalf("retryable failure surfaced as terminal: %v", err)
	}
	if sa.Done() {
		t.Fatal("session terminal after a retryable failure")
	}

	// Alice's tick retransmits; her restart traffic reaches bob early and
	// is buffered under the new attempt.
	now := time.Now()
	if err := sa.Tick(now); err != nil {
		t.Fatal(err)
	}
	if sa.Attempts() != 1 {
		t.Fatalf("Attempts = %d after one restart", sa.Attempts())
	}
	restart := sa.Outbox()
	if len(restart) == 0 {
		t.Fatal("restart produced no retransmission")
	}
	for _, p := range restart {
		if err := sb.HandleMessage(p); err != nil {
			t.Fatal(err)
		}
	}
	// Bob's deadline expires: his tick abandons the stale attempt and
	// re-drives the flow, replaying alice's buffered restart traffic.
	sb.SetDeadline(now)
	if err := sb.Tick(now); err != nil {
		t.Fatal(err)
	}
	routePackets(t, map[string]*Session{roster[0]: sa, roster[1]: sb})

	if !sa.Done() || !sb.Done() {
		t.Fatalf("not converged: a=%v b=%v", sa.Done(), sb.Done())
	}
	if sa.Key() == nil || !bytes.Equal(sa.Key(), sb.Key()) {
		t.Fatal("retransmitted session keys disagree")
	}
}

// TestSessionDeadlineTimeout: with no peer answering, each expired
// deadline consumes one retransmission; once the budget is gone the
// session fails terminally with ErrSessionTimeout.
func TestSessionDeadlineTimeout(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewMember("to-01")
	if err != nil {
		t.Fatal(err)
	}
	s, err := alice.NewSession("room-to", []string{"to-01", "to-99"})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := s.Tick(now); err != nil || s.Attempts() != 0 {
		t.Fatalf("tick without deadline acted: %v, attempts %d", err, s.Attempts())
	}
	for want := 1; want <= 2; want++ { // MaxRetries defaults to 2
		s.SetDeadline(now)
		if err := s.Tick(now); err != nil {
			t.Fatalf("restart %d failed: %v", want, err)
		}
		if s.Attempts() != want || s.Done() {
			t.Fatalf("after deadline %d: attempts %d, done %v", want, s.Attempts(), s.Done())
		}
		if len(s.Outbox()) == 0 {
			t.Fatalf("restart %d sent nothing", want)
		}
	}
	s.SetDeadline(now)
	err = s.Tick(now)
	if !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("want ErrSessionTimeout, got %v", err)
	}
	if !s.Done() || s.Err() == nil || s.Key() != nil {
		t.Fatal("timed-out session not terminal")
	}
}

// TestPeerDownHandlerAndDeadPeers: a peer-down control packet fed through
// any session handle records the death once, fires the handler once, and
// is never treated as protocol traffic.
func TestPeerDownHandlerAndDeadPeers(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewMember("pd-01")
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	alice.SetPeerDownHandler(func(peer string) { fired = append(fired, peer) })
	s, err := alice.NewSession("room-pd", []string{"pd-01", "pd-02"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // duplicate notices collapse
		if err := s.HandleMessage(PeerDownPacket("pd-02")); err != nil {
			t.Fatal(err)
		}
	}
	if len(fired) != 1 || fired[0] != "pd-02" {
		t.Fatalf("handler fired %v", fired)
	}
	if dead := alice.DeadPeers(); len(dead) != 1 || dead[0] != "pd-02" {
		t.Fatalf("DeadPeers = %v", dead)
	}
	if s.Done() {
		t.Fatal("peer-down notice terminated the session")
	}
}

// TestSessionCloseIdempotent: Close is safe to repeat and cannot disturb
// a newer session that reused the id.
func TestSessionCloseIdempotent(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	roster := []string{"cl-01", "cl-02"}
	members := make([]*Member, 2)
	sessions := map[string]*Session{}
	for i, id := range roster {
		if members[i], err = auth.NewMember(id); err != nil {
			t.Fatal(err)
		}
		if sessions[id], err = members[i].NewSession("room-cl", roster); err != nil {
			t.Fatal(err)
		}
	}
	routePackets(t, sessions)
	first := sessions[roster[0]]
	if !first.Done() || first.Key() == nil {
		t.Fatal("establishment failed")
	}

	// A new handle reuses the sid (retransmission-style restart); closing
	// the COMPLETED old handle must not tear the new flow or the
	// committed base group down.
	second, err := members[0].NewSession("room-cl", roster)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	first.Close() // idempotent
	if members[0].mach.Session("room-cl") == nil {
		t.Fatal("closing a superseded handle released the live session's group")
	}
	if second.Done() {
		t.Fatal("closing a superseded handle killed the new flow")
	}
	second.Close()
	second.Close() // idempotent on an aborted in-flight session too
	if !second.Done() || second.Err() == nil {
		t.Fatal("closed in-flight session not terminal")
	}
	if members[0].mach.Session("room-cl") != nil {
		t.Fatal("owning handle's Close did not release the group")
	}
}

// TestSessionTickSupersededHandle: a stale handle's Tick must fail
// locally instead of tearing down (or re-driving) a newer session that
// reused the sid.
func TestSessionTickSupersededHandle(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewMember("sp-01")
	if err != nil {
		t.Fatal(err)
	}
	roster := []string{"sp-01", "sp-02"}
	old, err := alice.NewSession("room-sp", roster)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := alice.NewSession("room-sp", roster) // supersedes old
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	old.SetDeadline(now)
	for i := 0; i < 4; i++ { // budget exhausted and beyond
		old.Tick(now)
		old.SetDeadline(now)
	}
	if !old.Done() || old.Err() == nil {
		t.Fatal("stale handle not failed")
	}
	if fresh.Done() {
		t.Fatal("stale handle's Tick killed the live session")
	}
	if alice.sessions["room-sp"] != fresh {
		t.Fatal("stale handle's Tick dropped the live registry entry")
	}
	// The live handle still ticks/restarts normally.
	fresh.SetDeadline(now)
	if err := fresh.Tick(now); err != nil || fresh.Attempts() != 1 {
		t.Fatalf("live handle broken after stale tick: %v, attempts %d", err, fresh.Attempts())
	}
}

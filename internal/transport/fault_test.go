package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"idgka/internal/netsim"
)

// dialRaw registers id at the hub over a bare TCP connection that never
// acknowledges relayed messages: a peer that is wedged at protocol level,
// or about to die mid-delivery.
func dialRaw(t *testing.T, addr, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, &frame{Kind: kindHello, From: id}); err != nil {
		t.Fatal(err)
	}
	ack, err := readFrame(conn)
	if err != nil || ack.Kind != kindDone {
		t.Fatalf("raw registration of %q not confirmed: %v", id, err)
	}
	return conn
}

// TestCrossRouterConcurrentBroadcast is the regression test for the
// sequence-number collision: two Router processes attached to one hub
// number their frames independently, so a hub keyed on Seq alone conflates
// their deliveries and one sender's done frame is lost forever. Before
// the (sender, seq) pending key this deadlocked on the first concurrent
// pair.
func TestCrossRouterConcurrentBroadcast(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ra := NewRouter(hub.Addr())
	defer ra.Close()
	rb := NewRouter(hub.Addr())
	defer rb.Close()
	if err := ra.Attach("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := rb.Attach("b", nil); err != nil {
		t.Fatal(err)
	}

	const rounds = 50
	finished := make(chan error, 2)
	broadcast := func(r *Router, id string) {
		for i := 0; i < rounds; i++ {
			if err := r.Broadcast(id, "t", []byte(id)); err != nil {
				finished <- err
				return
			}
		}
		finished <- nil
	}
	go broadcast(ra, "a")
	go broadcast(rb, "b")
	for i := 0; i < 2; i++ {
		select {
		case err := <-finished:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent cross-router broadcasts deadlocked")
		}
	}
	if msgs, _ := ra.Recv("a"); len(msgs) != rounds {
		t.Fatalf("a received %d, want %d", len(msgs), rounds)
	}
	if msgs, _ := rb.Recv("b"); len(msgs) != rounds {
		t.Fatalf("b received %d, want %d", len(msgs), rounds)
	}
}

// TestDeadPeerUnblocksSender kills a node mid-broadcast: the raw peer
// never acks, so the sender is blocked until the disconnect — at which
// point the hub settles the delivery with an error done-frame and the
// sender returns a *PeerDownError instead of hanging forever. Survivors
// are notified with a peer-down inbox message.
func TestDeadPeerUnblocksSender(t *testing.T) {
	hub, r, _ := newPair(t, "a", "b")
	z := dialRaw(t, hub.Addr(), "z")

	result := make(chan error, 1)
	go func() { result <- r.Broadcast("a", "t", []byte("payload")) }()
	select {
	case err := <-result:
		t.Fatalf("broadcast returned before the wedged peer acked: %v", err)
	case <-time.After(100 * time.Millisecond):
		// Still blocked on z, as the delivery contract demands.
	}
	_ = z.Close()
	select {
	case err := <-result:
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Peer != "z" {
			t.Fatalf("want PeerDownError{z}, got %v", err)
		}
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("errors.Is(ErrPeerDown) false for %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sender still wedged after the peer died")
	}
	// The message reached the healthy recipient, and both survivors got
	// the peer-down notice. The notice may wake b after the message did,
	// so b's inbox is drained until both have arrived.
	var gotMsg, gotDown bool
	for !gotMsg || !gotDown {
		msgs, err := r.RecvWait("b")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			switch {
			case m.Type == "t" && m.From == "a":
				gotMsg = true
			case m.Type == netsim.TypePeerDown && m.From == "z":
				gotDown = true
			}
		}
	}
	if msgs, err := r.RecvWait("a"); err != nil || len(msgs) == 0 || msgs[0].Type != netsim.TypePeerDown {
		t.Fatalf("a did not get the peer-down notice: %+v %v", msgs, err)
	}
	// The hub holds no leaked deliveries and later broadcasts work.
	if err := r.Broadcast("a", "t2", nil); err != nil {
		t.Fatal(err)
	}
	if hub.PendingCount() != 0 {
		t.Fatalf("hub leaked %d pending deliveries", hub.PendingCount())
	}
}

// TestSendDeadline bounds a send blocked on a wedged-but-alive peer: the
// per-delivery deadline fires and the send returns ErrSendTimeout instead
// of blocking unboundedly. The confirmation slot is released.
func TestSendDeadline(t *testing.T) {
	hub, r, _ := newPair(t, "a")
	z := dialRaw(t, hub.Addr(), "z")
	defer z.Close()

	r.SetSendTimeout(150 * time.Millisecond)
	start := time.Now()
	err := r.Broadcast("a", "t", []byte("x"))
	if !errors.Is(err, ErrSendTimeout) {
		t.Fatalf("want ErrSendTimeout, got %v", err)
	}
	if d := time.Since(start); d < 150*time.Millisecond || d > 10*time.Second {
		t.Fatalf("deadline fired after %v", d)
	}
	// The slot was reclaimed: no leaked confirmation channel.
	r.mu.Lock()
	n := r.nodes["a"]
	r.mu.Unlock()
	n.mu.Lock()
	leaked := len(n.done)
	n.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d confirmation slots leaked after timeout", leaked)
	}
}

// TestHubCloseWakesBlockedNodes: a hub restart (or crash) must not strand
// nodes — RecvWait wakes with an error and sends fail fast, and a fresh
// hub accepts new attachments.
func TestHubCloseWakesBlockedNodes(t *testing.T) {
	hub, r, _ := newPair(t, "a", "b")
	woke := make(chan error, 1)
	go func() {
		_, err := r.RecvWait("a")
		woke <- err
	}()
	time.Sleep(50 * time.Millisecond) // let RecvWait block
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-woke:
		if err == nil {
			t.Fatal("RecvWait returned without error after hub close")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RecvWait still blocked after hub close")
	}
	if err := r.Broadcast("b", "t", nil); err == nil {
		t.Fatal("broadcast succeeded against a closed hub")
	}

	// A replacement hub serves fresh attachments.
	hub2, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub2.Close()
	r2 := NewRouter(hub2.Addr())
	defer r2.Close()
	if err := r2.Attach("a", nil); err != nil {
		t.Fatalf("attach to restarted hub: %v", err)
	}
}

// TestDuplicateHelloRejected: a second registration of a live id — e.g. a
// node trying to reconnect while its old connection is still up — is
// refused without disturbing the original.
func TestDuplicateHelloRejected(t *testing.T) {
	hub, r, _ := newPair(t, "a", "b")
	r2 := NewRouter(hub.Addr())
	defer r2.Close()
	if err := r2.Attach("a", nil); err == nil {
		t.Fatal("duplicate hello accepted")
	}
	// The original node is untouched.
	if err := r.Broadcast("a", "t", []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := r.Recv("b"); len(msgs) != 1 {
		t.Fatalf("original node disturbed: %+v", msgs)
	}
	if hub.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d after rejected dup", hub.NodeCount())
	}
}

// TestRecvWaitWakesOnDetach: detaching a node releases its blocked
// receiver with an error instead of leaving it asleep forever.
func TestRecvWaitWakesOnDetach(t *testing.T) {
	_, r, _ := newPair(t, "a", "b")
	woke := make(chan error, 1)
	go func() {
		_, err := r.RecvWait("a")
		woke <- err
	}()
	time.Sleep(50 * time.Millisecond)
	r.Detach("a")
	select {
	case err := <-woke:
		if err == nil {
			t.Fatal("RecvWait returned without error after Detach")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RecvWait still blocked after Detach")
	}
}

// TestConcurrentSendersWithCrash floods the hub from three routers while
// a fourth node dies mid-storm: every sender must terminate — success or
// a peer-down/timeout error — with no delivery left pending on the hub.
func TestConcurrentSendersWithCrash(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	routers := make([]*Router, 3)
	ids := []string{"a", "b", "c"}
	for i, id := range ids {
		routers[i] = NewRouter(hub.Addr())
		defer routers[i].Close()
		routers[i].SetSendTimeout(10 * time.Second)
		if err := routers[i].Attach(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	z := dialRaw(t, hub.Addr(), "z")

	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(r *Router, id string) {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				err := r.Broadcast(id, "t", []byte(id))
				if err != nil && !errors.Is(err, ErrPeerDown) {
					t.Errorf("%s: %v", id, err)
					return
				}
			}
		}(routers[i], id)
	}
	time.Sleep(20 * time.Millisecond)
	_ = z.Close() // crash mid-storm
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("senders wedged after mid-storm crash")
	}
	if hub.PendingCount() != 0 {
		t.Fatalf("hub leaked %d pending deliveries", hub.PendingCount())
	}
}

// TestUnicastToAbsentRecipientFails: a directed send to a dead (or never
// registered) node must surface as a PeerDownError — matching
// netsim.Async's crash semantics — while a broadcast into an empty group
// stays a vacuous success.
func TestUnicastToAbsentRecipientFails(t *testing.T) {
	hub, r, _ := newPair(t, "a", "b")
	z := dialRaw(t, hub.Addr(), "z")
	_ = z.Close()
	// Wait until the hub has processed z's departure.
	deadline := time.Now().Add(10 * time.Second)
	for hub.NodeCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("hub never cleaned up the dead node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	drainDowns := func(id string) { // clear z's peer-down notices
		if _, err := r.RecvWait(id); err != nil {
			t.Fatal(err)
		}
	}
	drainDowns("a")
	drainDowns("b")

	var pd *PeerDownError
	if err := r.Send("a", "z", "t", []byte("x")); !errors.As(err, &pd) || pd.Peer != "z" {
		t.Fatalf("unicast to dead node: want PeerDownError{z}, got %v", err)
	}
	if err := r.Send("a", "ghost", "t", nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("unicast to unknown node: want ErrPeerDown, got %v", err)
	}
	// Healthy unicast and empty-group broadcast still succeed.
	if err := r.Send("a", "b", "t", nil); err != nil {
		t.Fatal(err)
	}
	hub2, r2, _ := newPair(t, "solo")
	defer hub2.Close()
	if err := r2.Broadcast("solo", "t", nil); err != nil {
		t.Fatalf("empty-group broadcast: %v", err)
	}
}

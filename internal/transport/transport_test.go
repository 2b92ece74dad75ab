package transport

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"idgka/internal/core"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

func newPair(t *testing.T, ids ...string) (*Hub, *Router, map[string]*meter.Meter) {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	router := NewRouter(hub.Addr())
	t.Cleanup(router.Close)
	ms := map[string]*meter.Meter{}
	for _, id := range ids {
		ms[id] = meter.New()
		if err := router.Attach(id, ms[id]); err != nil {
			t.Fatal(err)
		}
	}
	return hub, router, ms
}

func TestBroadcastDeliversSynchronously(t *testing.T) {
	_, r, ms := newPair(t, "a", "b", "c")
	payload := []byte("hello over tcp")
	if err := r.Broadcast("a", "t1", payload); err != nil {
		t.Fatal(err)
	}
	// The synchronous contract: after Broadcast returns, the message is
	// already in every inbox — no polling.
	for _, id := range []string{"b", "c"} {
		msgs, err := r.RecvType(id, "t1")
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
			t.Fatalf("%s: got %+v", id, msgs)
		}
	}
	if msgs, _ := r.Recv("a"); len(msgs) != 0 {
		t.Fatal("sender received own broadcast")
	}
	if ms["a"].Report().MsgTx != 1 || ms["b"].Report().MsgRx != 1 {
		t.Fatal("metering wrong")
	}
}

func TestUnicast(t *testing.T) {
	_, r, _ := newPair(t, "a", "b", "c")
	if err := r.Send("a", "b", "t", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := r.Recv("c"); len(msgs) != 0 {
		t.Fatal("unicast leaked")
	}
	msgs, _ := r.Recv("b")
	if len(msgs) != 1 || msgs[0].To != "b" {
		t.Fatalf("unicast not delivered: %+v", msgs)
	}
}

func TestStateBytesAccounting(t *testing.T) {
	_, r, ms := newPair(t, "a", "b")
	payload := make([]byte, 100)
	if err := r.BroadcastState("a", "t", payload, 30); err != nil {
		t.Fatal(err)
	}
	ra := ms["a"].Report()
	if ra.BytesTx != 70 || ra.StateTx != 30 {
		t.Fatalf("sender state accounting: %+v", ra)
	}
	rb := ms["b"].Report()
	if rb.BytesRx != 70 || rb.StateRx != 30 {
		t.Fatalf("receiver state accounting: %+v", rb)
	}
}

func TestUnknownNodeRejected(t *testing.T) {
	_, r, _ := newPair(t, "a")
	if err := r.Broadcast("zz", "t", nil); err == nil {
		t.Fatal("unknown sender accepted")
	}
	if _, err := r.Recv("zz"); err == nil {
		t.Fatal("unknown receiver accepted")
	}
}

func TestDuplicateAttachRejected(t *testing.T) {
	_, r, _ := newPair(t, "a")
	if err := r.Attach("a", nil); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestRecvTypeOrderingDeterministic(t *testing.T) {
	_, r, _ := newPair(t, "a", "b", "c")
	if err := r.Broadcast("c", "t", []byte{3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Broadcast("a", "t", []byte{1}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := r.RecvType("b", "t")
	if len(msgs) != 2 || msgs[0].From != "a" || msgs[1].From != "c" {
		t.Fatalf("ordering wrong: %+v", msgs)
	}
}

func TestConcurrentSenders(t *testing.T) {
	_, r, _ := newPair(t, "a", "b", "c", "d")
	var wg sync.WaitGroup
	for _, id := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := r.Broadcast(id, "t", []byte(id)); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	for _, id := range []string{"a", "b", "c", "d"} {
		msgs, _ := r.Recv(id)
		if len(msgs) != 60 {
			t.Fatalf("%s received %d, want 60", id, len(msgs))
		}
	}
}

// TestFullGKAOverTCP is the integration payoff: the complete two-round
// authenticated GKA plus a join, running over real sockets.
func TestFullGKAOverTCP(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	router := NewRouter(hub.Addr())
	defer router.Close()

	set := params.Default()
	cfg := engine.Config{Set: set.Public()}
	var members []*engine.Machine
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("tcp-%02d", i+1)
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			t.Fatal(err)
		}
		m := meter.New()
		mb, err := engine.NewMachine(cfg, sk, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Attach(id, m); err != nil {
			t.Fatal(err)
		}
		members = append(members, mb)
	}
	if err := core.RunInitial(router, members); err != nil {
		t.Fatalf("GKA over TCP: %v", err)
	}
	key := members[0].Key()
	for _, mb := range members[1:] {
		if mb.Key().Cmp(key) != 0 {
			t.Fatalf("%s disagrees over TCP", mb.ID())
		}
	}

	// Join over TCP, exercising unicast + state transfer.
	sk, _ := gq.Extract(set.RSA, "tcp-join")
	jm := meter.New()
	joiner, _ := engine.NewMachine(cfg, sk, jm)
	if err := router.Attach("tcp-join", jm); err != nil {
		t.Fatal(err)
	}
	if err := core.RunJoin(router, members, joiner); err != nil {
		t.Fatalf("join over TCP: %v", err)
	}
	all := append(members, joiner)
	for _, mb := range all[1:] {
		if mb.Key().Cmp(all[0].Key()) != 0 {
			t.Fatalf("%s disagrees after TCP join", mb.ID())
		}
	}
	// Confirmation round over TCP too.
	if err := core.ConfirmKey(router, all); err != nil {
		t.Fatalf("confirm over TCP: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, in := range []*frame{
		{Kind: kindMsg, Seq: 42, From: "a", To: "b", Type: "x", StateLen: 7, Payload: []byte{9, 8}},
		{Kind: kindOwn, Seq: 43, From: "a", Type: "x", StateLen: 1, Payload: []byte{7}, Rcpt: []string{"b", "c"}},
		{Kind: kindOwnFirst, Seq: 44, From: "a", Type: "x", Payload: []byte{6}, Rcpt: []string{"b"}},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind != in.Kind || out.Seq != in.Seq || out.From != in.From ||
			out.To != in.To || out.Type != in.Type || out.StateLen != in.StateLen ||
			!bytes.Equal(out.Payload, in.Payload) || !slices.Equal(out.Rcpt, in.Rcpt) {
			t.Fatalf("round trip mismatch: %+v", out)
		}
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 4, 1, 2, 3, 4})); err == nil {
		t.Fatal("malformed body accepted")
	}
}

func TestHubNodeCount(t *testing.T) {
	hub, r, _ := newPair(t, "a", "b")
	if hub.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d", hub.NodeCount())
	}
	r.Detach("a")
	// Detachment propagates asynchronously; just ensure Close works.
}

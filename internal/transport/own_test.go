package transport

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeHub serves one Router connection by hand: it confirms every hello
// itself and hands every frame the Router writes, hellos included, to
// the test in order.
type fakeHub struct {
	t      *testing.T
	addr   string
	frames chan *frame

	mu   sync.Mutex
	conn net.Conn
}

func newFakeHub(t *testing.T) *fakeHub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &fakeHub{t: t, addr: ln.Addr().String(), frames: make(chan *frame, 64)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		h.mu.Lock()
		h.conn = conn
		h.mu.Unlock()
		rd := bufio.NewReader(conn)
		for {
			f, err := readFrame(rd)
			if err != nil {
				return
			}
			h.frames <- f
			if f.Kind == kindHello {
				h.write(&frame{Kind: kindDone, Seq: f.Seq})
			}
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-served
	})
	return h
}

// write sends the Router one frame.
func (h *fakeHub) write(f *frame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := writeFrame(h.conn, f); err != nil {
		h.t.Error(err)
	}
}

// next returns the next frame the Router wrote.
func (h *fakeHub) next() *frame {
	h.t.Helper()
	select {
	case f := <-h.frames:
		return f
	case <-time.After(10 * time.Second):
		h.t.Fatal("the Router wrote no frame")
		return nil
	}
}

// routerOn attaches ids to a new Router on the fake hub and consumes
// their hellos.
func routerOn(t *testing.T, h *fakeHub, ids ...string) *Router {
	t.Helper()
	r := NewRouter(h.addr)
	t.Cleanup(r.Close)
	r.SetSendTimeout(10 * time.Second)
	for _, id := range ids {
		if err := r.Attach(id, nil); err != nil {
			t.Fatal(err)
		}
		if f := h.next(); f.Kind != kindHello || f.From != id {
			t.Fatalf("attach of %s wrote %+v", id, f)
		}
	}
	return r
}

// TestOwnFrameEndsSend: an own frame answers the pending send at once,
// lands in the listed inboxes, and draws no acknowledgement: the next
// frame the Router writes is the hello that follows.
func TestOwnFrameEndsSend(t *testing.T) {
	h := newFakeHub(t)
	r := routerOn(t, h, "x", "y")
	sent := make(chan error, 1)
	go func() { sent <- r.Broadcast("x", "t", []byte("local")) }()
	msg := h.next()
	if msg.Kind != kindMsg || msg.From != "x" {
		t.Fatalf("broadcast wrote %+v", msg)
	}
	h.write(&frame{Kind: kindOwn, Seq: msg.Seq, From: "x", Type: "t", Payload: msg.Payload, Rcpt: []string{"y"}})
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the own frame did not end the send")
	}
	msgs, err := r.Recv("y")
	if err != nil || len(msgs) != 1 || msgs[0].From != "x" || string(msgs[0].Payload) != "local" {
		t.Fatalf("y's inbox: %+v, %v", msgs, err)
	}
	if err := r.Attach("z", nil); err != nil {
		t.Fatal(err)
	}
	if f := h.next(); f.Kind != kindHello || f.From != "z" {
		t.Fatalf("the frame after the own frame is %+v, want z's hello", f)
	}
}

// TestOwnFrameDetachedRecipient: a recipient listed in an own frame but
// no longer attached fails the send with a *PeerDownError naming it,
// whether the own frame ends the send or a done follows it. A done that
// names a failure of its own reports that one.
func TestOwnFrameDetachedRecipient(t *testing.T) {
	h := newFakeHub(t)
	r := routerOn(t, h, "x", "y")
	for _, tc := range []struct {
		name   string
		kind   string
		done   bool   // a done frame follows the own frame
		doneBy string // the done frame's From
		want   string
	}{
		{"own ends the send", kindOwn, false, "", "gone"},
		{"done follows", kindOwnFirst, true, "", "gone"},
		{"done names a peer", kindOwnFirst, true, "far", "far"},
	} {
		sent := make(chan error, 1)
		go func() { sent <- r.Broadcast("x", "t", []byte(tc.name)) }()
		msg := h.next()
		if msg.Kind != kindMsg {
			t.Fatalf("%s: broadcast wrote %+v", tc.name, msg)
		}
		h.write(&frame{Kind: tc.kind, Seq: msg.Seq, From: "x", Type: "t", Payload: msg.Payload, Rcpt: []string{"y", "gone"}})
		if tc.done {
			select {
			case err := <-sent:
				t.Fatalf("%s: an own frame with a done to follow ended the send: %v", tc.name, err)
			case <-time.After(50 * time.Millisecond):
			}
			h.write(&frame{Kind: kindDone, Seq: msg.Seq, From: tc.doneBy})
		}
		select {
		case err := <-sent:
			var pd *PeerDownError
			if !errors.As(err, &pd) || pd.Peer != tc.want {
				t.Fatalf("%s: want PeerDownError{%s}, got %v", tc.name, tc.want, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the send never ended", tc.name)
		}
		if msgs, _ := r.Recv("y"); len(msgs) != 1 || string(msgs[0].Payload) != tc.name {
			t.Fatalf("%s: y's inbox: %+v", tc.name, msgs)
		}
	}
}

// TestTwoRouterBroadcastReachesLocalPeers: a broadcast that reaches the
// sender's own Router and another one returns with every recipient's
// copy filed, local and remote, and leaves nothing pending on the hub.
func TestTwoRouterBroadcastReachesLocalPeers(t *testing.T) {
	hub, ra, _ := newPair(t, "a", "b")
	rb := NewRouter(hub.Addr())
	defer rb.Close()
	if err := rb.Attach("c", nil); err != nil {
		t.Fatal(err)
	}
	for i, from := range []struct {
		r  *Router
		id string
	}{{ra, "a"}, {rb, "c"}, {ra, "b"}} {
		if err := from.r.Broadcast(from.id, "t", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		for _, to := range []struct {
			r  *Router
			id string
		}{{ra, "a"}, {ra, "b"}, {rb, "c"}} {
			msgs, err := to.r.Recv(to.id)
			want := 1
			if to.id == from.id {
				want = 0
			}
			if err != nil || len(msgs) != want {
				t.Fatalf("after %s's broadcast, %s holds %+v, %v", from.id, to.id, msgs, err)
			}
		}
		if n := hub.PendingCount(); n != 0 {
			t.Fatalf("hub holds %d pending deliveries after %s's broadcast", n, from.id)
		}
	}
}

// frameProxy forwards one Router connection to the hub frame by frame
// and logs each frame's kind by direction.
type frameProxy struct {
	addr string

	mu       sync.Mutex
	up, down []string
}

func newFrameProxy(t *testing.T, hubAddr string) *frameProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{addr: ln.Addr().String()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		rc, err := ln.Accept()
		if err != nil {
			return
		}
		hc, err := net.Dial("tcp", hubAddr)
		if err != nil {
			_ = rc.Close()
			return
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); p.pipe(rc, hc, &p.up) }()
		go func() { defer wg.Done(); p.pipe(hc, rc, &p.down) }()
		wg.Wait()
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-served
	})
	return p
}

// pipe copies frames until either side fails, then closes both.
func (p *frameProxy) pipe(from, to net.Conn, log *[]string) {
	defer from.Close()
	defer to.Close()
	rd := bufio.NewReader(from)
	for {
		f, err := readFrame(rd)
		if err != nil {
			return
		}
		p.mu.Lock()
		*log = append(*log, f.Kind)
		p.mu.Unlock()
		if writeFrame(to, f) != nil {
			return
		}
	}
}

// TestSameRouterBroadcastIsTwoFrames pins the frame count: a broadcast
// between nodes of one Router crosses the hub as one msg frame up and
// one own frame down, with no ack and no done. A hello after it is the
// barrier: frames on one connection stay in order, so anything the
// broadcast still owed would be logged before the hello and its done.
func TestSameRouterBroadcastIsTwoFrames(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	p := newFrameProxy(t, hub.Addr())
	r := NewRouter(p.addr)
	t.Cleanup(r.Close)
	ids := []string{"a", "b", "c", "d"}
	for _, id := range ids {
		if err := r.Attach(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Broadcast("a", "t", []byte("four nodes")); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach("e", nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		if msgs, _ := r.Recv(id); len(msgs) != 1 {
			t.Fatalf("%s holds %+v", id, msgs)
		}
	}
	p.mu.Lock()
	up, down := slices.Clone(p.up), slices.Clone(p.down)
	p.mu.Unlock()
	wantUp := []string{kindHello, kindHello, kindHello, kindHello, kindMsg, kindHello}
	wantDown := []string{kindDone, kindDone, kindDone, kindDone, kindOwn, kindDone}
	if !slices.Equal(up, wantUp) || !slices.Equal(down, wantDown) {
		t.Fatalf("frames up %v, down %v; want up %v, down %v", up, down, wantUp, wantDown)
	}
}

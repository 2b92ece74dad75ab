// Package transport carries the protocols over real TCP sockets with the
// same delivery contract as the in-memory simulator: Broadcast/Send return
// only once the message sits in every recipient's inbox, so the lockstep
// orchestrators of internal/core and internal/baseline run unchanged over
// a genuine network stack.
//
// Topology: a Hub process accepts one TCP connection per node and relays
// frames. Delivery acknowledgements flow back through the hub to the
// sender, giving the synchronous semantics netsim.Medium promises. A
// Router bundles any number of local node connections behind the
// netsim.Medium interface.
//
// Failure semantics: the hub gives every blocked sender an explicit
// outcome. Pending deliveries are keyed by (sender, seq) — each Router
// numbers its frames independently, so a bare sequence number collides the
// moment two processes broadcast concurrently. When a node disconnects,
// every delivery still waiting on its acknowledgement is settled with an
// error done-frame naming the dead peer (the sender unblocks with a
// *PeerDownError instead of hanging forever), deliveries the dead node
// itself originated are dropped, and every survivor receives a peer-down
// control frame that surfaces in its inbox as a netsim.TypePeerDown
// message — the trigger for the application to re-key via Leave. On top of
// that, every Router send carries a deadline (SetSendTimeout, default
// DefaultSendTimeout) so no Broadcast/Send can block unboundedly even if
// the hub itself wedges.
//
// Frame format (all fields via internal/wire):
//
//	kind ‖ seq ‖ from ‖ to ‖ type ‖ stateLen ‖ payload
//
// kinds: "hello" (registration), "msg" (data), "ack" (delivery
// confirmation, node→hub, To names the original sender), "done"
// (hub→sender: all recipients confirmed, or From names a recipient that
// died first), "down" (hub→survivors: node From disconnected).
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"idgka/internal/meter"
	"idgka/internal/metrics"
	"idgka/internal/netsim"
	"idgka/internal/wire"
)

// The transport's process-wide metrics; documented in docs/OPERATIONS.md.
var (
	mSends        = metrics.NewCounter("transport_sends_total")
	mSendTimeouts = metrics.NewCounter("transport_send_timeouts_total")
	mPeerDowns    = metrics.NewCounter("transport_peer_downs_total")
)

// Frame kinds.
const (
	kindHello = "hello"
	kindMsg   = "msg"
	kindAck   = "ack"
	kindDone  = "done"
	kindDown  = "down"
)

// DefaultSendTimeout bounds how long a Broadcast/Send may wait for the
// hub's delivery confirmation before failing with ErrSendTimeout. Tune per
// Router with SetSendTimeout.
const DefaultSendTimeout = 30 * time.Second

// ErrPeerDown classifies delivery failures caused by a recipient dying
// before acknowledging; match with errors.Is. The concrete error is a
// *PeerDownError naming the dead node.
var ErrPeerDown = errors.New("transport: peer down")

// ErrSendTimeout classifies sends that exhausted their delivery deadline;
// match with errors.Is.
var ErrSendTimeout = errors.New("transport: send timed out")

// PeerDownError reports that a recipient disconnected before confirming a
// delivery (or that a relay write to it failed). The message may or may
// not have reached the peer; the group should treat it as dead and re-key.
type PeerDownError struct{ Peer string }

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("transport: peer %q went down before acknowledging delivery", e.Peer)
}

// Is lets errors.Is(err, ErrPeerDown) match.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// frame is the unit of exchange between nodes and the hub.
type frame struct {
	Kind     string
	Seq      uint64
	From     string
	To       string // empty = broadcast
	Type     string
	StateLen uint64
	Payload  []byte
}

// writeFrame serialises a frame with a 4-byte length prefix, prefix and
// body encoded into one buffer and written in one call.
func writeFrame(w io.Writer, f *frame) error {
	n := 4 + len(f.Kind) + 8 + 4 + len(f.From) + 4 + len(f.To) + 4 + len(f.Type) + 8 + 4 + len(f.Payload)
	buf := wire.NewSizedBuffer(4 + n).
		PutLen(n).
		PutString(f.Kind).
		PutUint(f.Seq).
		PutString(f.From).
		PutString(f.To).
		PutString(f.Type).
		PutUint(f.StateLen).
		PutBytes(f.Payload).
		Bytes()
	_, err := w.Write(buf)
	return err
}

// readFrame parses one length-prefixed frame. A connection's reader is
// buffered (one bufio.Reader per connection, for its whole life), so a
// frame usually costs one read(2) or none. The payload aliases the
// frame's own buffer.
func readFrame(r io.Reader) (*frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(uint32(lenBuf[0])<<24 | uint32(lenBuf[1])<<16 | uint32(lenBuf[2])<<8 | uint32(lenBuf[3]))
	if n < 0 || n > 64<<20 {
		return nil, fmt.Errorf("transport: frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	rd := wire.NewReader(body)
	f := &frame{
		Kind:     rd.String(),
		Seq:      rd.Uint(),
		From:     rd.String(),
		To:       rd.String(),
		Type:     rd.String(),
		StateLen: rd.Uint(),
		Payload:  rd.Bytes(),
	}
	if err := rd.Close(); err != nil {
		return nil, fmt.Errorf("transport: bad frame: %w", err)
	}
	return f, nil
}

// Hub is the relay at the centre of the star topology.
type Hub struct {
	ln net.Listener

	mu sync.Mutex
	//gkalint:guard mu
	conns   map[string]net.Conn
	pending map[pendingKey]*delivery
	closed  bool
	//gkalint:guard -
	wg sync.WaitGroup
}

// pendingKey identifies one relayed message. Routers number their frames
// independently, so the sequence number alone collides as soon as two
// processes broadcast concurrently; the sender id disambiguates (the hub
// enforces unique node ids at registration).
type pendingKey struct {
	sender string
	seq    uint64
}

// delivery tracks outstanding acknowledgements for one relayed message.
type delivery struct {
	sender  string
	waiting map[string]bool
	// failed names the first recipient that disconnected (or whose relay
	// write failed) before acknowledging; it is reported to the sender in
	// the done-frame when the waiting set drains.
	failed string
}

// NewHub starts a hub listening on addr (e.g. "127.0.0.1:0").
func NewHub(addr string) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	h := &Hub{ln: ln, conns: map[string]net.Conn{}, pending: map[pendingKey]*delivery{}}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Close shuts the hub down and disconnects all nodes.
func (h *Hub) Close() error {
	h.mu.Lock()
	h.closed = true
	err := h.ln.Close()
	for _, c := range h.conns {
		_ = c.Close()
	}
	h.mu.Unlock()
	h.wg.Wait()
	return err
}

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.wg.Add(1)
		go h.serve(conn)
	}
}

// serve handles one node connection: first frame must be a hello carrying
// the node id; afterwards msg frames are relayed and ack frames settle
// deliveries. On disconnect the node's footprint is cleaned up: its
// registration, its own unfinished deliveries, every delivery still
// waiting on its acknowledgement (settled with an error done-frame so the
// blocked senders return instead of wedging forever), and survivors are
// told via a peer-down frame.
func (h *Hub) serve(conn net.Conn) {
	defer h.wg.Done()
	rd := bufio.NewReader(conn)
	hello, err := readFrame(rd)
	if err != nil || hello.Kind != kindHello || hello.From == "" {
		_ = conn.Close()
		return
	}
	id := hello.From
	h.mu.Lock()
	if _, dup := h.conns[id]; dup || h.closed {
		h.mu.Unlock()
		// Rejected registrations (duplicate hello, closing hub) never
		// joined the topology: close without disturbing the live node.
		_ = conn.Close()
		return
	}
	h.conns[id] = conn
	h.mu.Unlock()
	// Confirm registration so Attach is synchronous.
	if err := writeFrame(conn, &frame{Kind: kindDone, Seq: hello.Seq}); err != nil {
		h.disconnect(id, conn)
		return
	}
	defer h.disconnect(id, conn)
	for {
		f, err := readFrame(rd)
		if err != nil {
			return
		}
		switch f.Kind {
		case kindMsg:
			h.relay(id, f)
		case kindAck:
			// The ack's To field names the original sender, reconstructing
			// the (sender, seq) delivery key.
			h.settle(pendingKey{sender: f.To, seq: f.Seq}, id, "")
		}
	}
}

// disconnect removes a departed node and releases everything blocked on
// it: deliveries it originated are dropped (the sender is gone),
// deliveries waiting on its ack are settled as failed, and survivors get
// a peer-down frame they surface as a netsim.TypePeerDown inbox message.
func (h *Hub) disconnect(id string, conn net.Conn) {
	_ = conn.Close()
	h.mu.Lock()
	if h.conns[id] != conn {
		// A different connection owns the id (should not happen: dup
		// hellos are rejected before registration); leave it alone.
		h.mu.Unlock()
		return
	}
	delete(h.conns, id)
	type doneWrite struct {
		conn net.Conn
		f    *frame
	}
	var writes []doneWrite
	for key, d := range h.pending {
		if d.sender == id {
			delete(h.pending, key)
			continue
		}
		if d.waiting[id] {
			delete(d.waiting, id)
			if d.failed == "" {
				d.failed = id
			}
			if len(d.waiting) == 0 {
				delete(h.pending, key)
				if c := h.conns[d.sender]; c != nil {
					writes = append(writes, doneWrite{c, &frame{Kind: kindDone, Seq: key.seq, From: d.failed}})
				}
			}
		}
	}
	closed := h.closed
	var survivors []net.Conn
	if !closed {
		for _, c := range h.conns {
			survivors = append(survivors, c)
		}
	}
	h.mu.Unlock()
	for _, w := range writes {
		_ = writeFrame(w.conn, w.f)
	}
	for _, c := range survivors {
		_ = writeFrame(c, &frame{Kind: kindDown, From: id})
	}
}

// relay forwards a message to its recipients and records the pending
// delivery; when there are no recipients the done is immediate. Write
// failures are surfaced: a recipient whose socket rejects the frame is
// settled as failed instead of leaving the sender waiting on an ack that
// can never come.
func (h *Hub) relay(sender string, f *frame) {
	// The delivery key and the acks both use the frame's From field; pin
	// it to the authenticated registration id so a buggy or malicious
	// router cannot collide another sender's deliveries.
	f.From = sender
	key := pendingKey{sender: sender, seq: f.Seq}
	h.mu.Lock()
	var recipients []string
	for id := range h.conns {
		if id == sender {
			continue
		}
		if f.To == "" || f.To == id {
			recipients = append(recipients, id)
		}
	}
	d := &delivery{sender: sender, waiting: map[string]bool{}}
	for _, id := range recipients {
		d.waiting[id] = true
	}
	h.pending[key] = d
	conns := make(map[string]net.Conn, len(recipients))
	for _, id := range recipients {
		conns[id] = h.conns[id]
	}
	senderConn := h.conns[sender]
	h.mu.Unlock()

	for id, c := range conns {
		if err := writeFrame(c, f); err != nil {
			h.settle(key, id, id)
		}
	}
	if len(recipients) == 0 {
		h.mu.Lock()
		delete(h.pending, key)
		h.mu.Unlock()
		// A broadcast to an empty group (or a self-addressed send, which
		// the hub never loops back) is vacuously delivered; a directed
		// send to an absent (dead or never-registered) recipient is a
		// failure the sender must see — mirroring netsim.Async's crash
		// semantics — not a silent success.
		done := &frame{Kind: kindDone, Seq: f.Seq}
		if f.To != "" && f.To != sender {
			done.From = f.To
		}
		if senderConn != nil {
			_ = writeFrame(senderConn, done)
		}
	}
}

// settle records one recipient's acknowledgement — or, when failed is
// non-empty, its failure — and sends the sender its done frame once the
// waiting set drains.
func (h *Hub) settle(key pendingKey, by, failed string) {
	h.mu.Lock()
	d, ok := h.pending[key]
	if !ok || !d.waiting[by] {
		h.mu.Unlock()
		return
	}
	delete(d.waiting, by)
	if failed != "" && d.failed == "" {
		d.failed = failed
	}
	var senderConn net.Conn
	var done *frame
	if len(d.waiting) == 0 {
		delete(h.pending, key)
		senderConn = h.conns[d.sender]
		done = &frame{Kind: kindDone, Seq: key.seq, From: d.failed}
	}
	h.mu.Unlock()
	if senderConn != nil {
		_ = writeFrame(senderConn, done)
	}
}

// NodeCount reports currently registered nodes (diagnostics).
func (h *Hub) NodeCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

// PendingCount reports deliveries still waiting on acknowledgements
// (diagnostics; a healthy quiescent hub reports 0).
func (h *Hub) PendingCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// node is one TCP-connected endpoint owned by a Router.
type node struct {
	id   string
	conn net.Conn
	rd   *bufio.Reader // conn's reader: the registration read, then readLoop
	m    *meter.Meter

	mu     sync.Mutex
	arrive *sync.Cond // signalled on inbox growth and on read errors
	//gkalint:guard mu
	inbox []netsim.Message
	done  map[uint64]chan error
	err   error
	//gkalint:guard -
	wmu sync.Mutex // serialises frame writes
}

// Router bundles local nodes behind the netsim.Medium interface: each
// attached node holds its own TCP connection to the hub, and the medium
// methods route by node id exactly like the in-memory simulator.
type Router struct {
	addr string

	mu sync.Mutex
	//gkalint:guard mu
	nodes   map[string]*node
	seq     uint64
	timeout time.Duration
}

// NewRouter creates a router that will dial the given hub address.
func NewRouter(hubAddr string) *Router {
	return &Router{addr: hubAddr, nodes: map[string]*node{}, timeout: DefaultSendTimeout}
}

// SetSendTimeout bounds how long every subsequent Broadcast/Send may wait
// for the hub's delivery confirmation; past the deadline the send returns
// an ErrSendTimeout-wrapped error instead of blocking forever. d <= 0
// removes the bound (the pre-deadline behaviour).
func (r *Router) SetSendTimeout(d time.Duration) {
	r.mu.Lock()
	r.timeout = d
	r.mu.Unlock()
}

// Attach dials the hub and registers a node id. The meter may be nil.
func (r *Router) Attach(id string, m *meter.Meter) error {
	if id == "" {
		return errors.New("transport: empty node id")
	}
	conn, err := net.Dial("tcp", r.addr)
	if err != nil {
		return fmt.Errorf("transport: dial: %w", err)
	}
	n := &node{id: id, conn: conn, rd: bufio.NewReader(conn), m: m, done: map[uint64]chan error{}}
	n.arrive = sync.NewCond(&n.mu)
	if err := writeFrame(conn, &frame{Kind: kindHello, From: id}); err != nil {
		_ = conn.Close()
		return err
	}
	// Wait for the hub's registration confirmation before exposing the
	// node, so subsequent broadcasts from peers cannot miss it. The hub
	// rejects duplicate ids by closing the socket, which surfaces here as
	// a failed confirmation read.
	if ack, err := readFrame(n.rd); err != nil || ack.Kind != kindDone {
		_ = conn.Close()
		return fmt.Errorf("transport: registration of %q not confirmed (duplicate id or hub down)", id)
	}
	r.mu.Lock()
	if _, dup := r.nodes[id]; dup {
		r.mu.Unlock()
		_ = conn.Close()
		return fmt.Errorf("transport: duplicate node %q", id)
	}
	r.nodes[id] = n
	r.mu.Unlock()
	//gkalint:bounded readLoop exits when the node's connection closes (Detach or router Close)
	go n.readLoop()
	return nil
}

// Detach closes a node's connection. Goroutines blocked in the node's
// RecvWait wake with an error; the hub settles whatever was waiting on
// the node and announces its departure to the survivors.
func (r *Router) Detach(id string) {
	r.mu.Lock()
	n := r.nodes[id]
	delete(r.nodes, id)
	r.mu.Unlock()
	if n != nil {
		_ = n.conn.Close()
	}
}

// Close detaches every node.
func (r *Router) Close() {
	r.mu.Lock()
	nodes := r.nodes
	r.nodes = map[string]*node{}
	r.mu.Unlock()
	for _, n := range nodes {
		_ = n.conn.Close()
	}
}

// fail records a terminal connection error and releases everything
// blocked on the node: pending sends get the error, RecvWait wakes.
func (n *node) fail(err error) {
	n.mu.Lock()
	if n.err == nil {
		n.err = err
	}
	for seq, ch := range n.done {
		delete(n.done, seq)
		//gkalint:blocked the buffered (cap 1) slot is deleted first, so this lone send cannot park while n.mu is held
		ch <- err //gkalint:unbounded confirmation channels are buffered (cap 1); deleting the slot first makes this the only sender
	}
	n.arrive.Broadcast()
	n.mu.Unlock()
}

// readLoop drains the node's socket: data frames go to the inbox (with an
// ack back to the hub), done frames release blocked senders, down frames
// surface as peer-down inbox messages.
func (n *node) readLoop() {
	for {
		f, err := readFrame(n.rd)
		if err != nil {
			n.fail(err)
			return
		}
		switch f.Kind {
		case kindMsg:
			n.mu.Lock()
			n.inbox = append(n.inbox, netsim.Message{
				From: f.From, To: f.To, Type: f.Type, Payload: f.Payload,
			})
			n.arrive.Broadcast()
			n.mu.Unlock()
			n.m.Rx(len(f.Payload))
			n.m.RxState(int(f.StateLen))
			n.wmu.Lock()
			// The ack names the original sender so the hub can rebuild the
			// (sender, seq) delivery key.
			err := writeFrame(n.conn, &frame{Kind: kindAck, Seq: f.Seq, To: f.From})
			n.wmu.Unlock()
			if err != nil {
				n.fail(err)
				return
			}
		case kindDone:
			n.mu.Lock()
			ch, ok := n.done[f.Seq]
			delete(n.done, f.Seq)
			n.mu.Unlock()
			if ok {
				if f.From != "" {
					ch <- &PeerDownError{Peer: f.From} //gkalint:unbounded buffered (cap 1); deleting the slot under n.mu made this the only sender
				} else {
					ch <- nil //gkalint:unbounded buffered (cap 1); deleting the slot under n.mu made this the only sender
				}
			}
		case kindDown:
			// A peer died: surface it in the inbox so event-driven nodes
			// blocked in RecvWait wake and can trigger a re-key.
			mPeerDowns.Inc()
			n.mu.Lock()
			n.inbox = append(n.inbox, netsim.PeerDown(f.From))
			n.arrive.Broadcast()
			n.mu.Unlock()
		}
	}
}

func (r *Router) lookup(id string) (*node, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[id]
	if !ok {
		return nil, fmt.Errorf("transport: unknown node %q", id)
	}
	return n, nil
}

// send transmits one frame from a node and blocks until the hub confirms
// delivery to all recipients, the node's deadline expires, or the
// connection fails — it can no longer block unboundedly. A recipient
// dying mid-delivery surfaces as a *PeerDownError.
func (r *Router) send(from, to, typ string, payload []byte, stateLen int) error {
	n, err := r.lookup(from)
	if err != nil {
		return err
	}
	mSends.Inc()
	r.mu.Lock()
	r.seq++
	seq := r.seq
	timeout := r.timeout
	r.mu.Unlock()
	ch := make(chan error, 1)
	n.mu.Lock()
	if n.err != nil {
		err := n.err
		n.mu.Unlock()
		return err
	}
	n.done[seq] = ch
	n.mu.Unlock()
	n.wmu.Lock()
	err = writeFrame(n.conn, &frame{
		Kind: kindMsg, Seq: seq, From: from, To: to, Type: typ,
		StateLen: uint64(stateLen), Payload: payload,
	})
	n.wmu.Unlock()
	if err != nil {
		// The frame never left: release the confirmation slot instead of
		// leaking it (and the channel) forever.
		n.mu.Lock()
		delete(n.done, seq)
		n.mu.Unlock()
		return err
	}
	n.m.Tx(len(payload))
	n.m.TxState(stateLen)
	if timeout <= 0 {
		return <-ch //gkalint:unbounded the caller explicitly disabled the send deadline (SetSendTimeout(0)); fail() settles the slot on connection teardown
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-ch:
		return err
	case <-timer.C:
		n.mu.Lock()
		_, armed := n.done[seq]
		delete(n.done, seq)
		n.mu.Unlock()
		if !armed {
			// The confirmation raced the deadline; honour it.
			return <-ch //gkalint:unbounded slot already disarmed, so the buffered confirmation send has happened or is in flight; returns promptly
		}
		mSendTimeouts.Inc()
		return fmt.Errorf("transport: delivery %d from %q unconfirmed after %v: %w",
			seq, from, timeout, ErrSendTimeout)
	}
}

// Broadcast implements netsim.Medium.
func (r *Router) Broadcast(from, typ string, payload []byte) error {
	return r.send(from, "", typ, payload, 0)
}

// BroadcastState implements netsim.Medium.
func (r *Router) BroadcastState(from, typ string, payload []byte, stateLen int) error {
	return r.send(from, "", typ, payload, stateLen)
}

// Send implements netsim.Medium.
func (r *Router) Send(from, to, typ string, payload []byte) error {
	return r.send(from, to, typ, payload, 0)
}

// SendState implements netsim.Medium.
func (r *Router) SendState(from, to, typ string, payload []byte, stateLen int) error {
	return r.send(from, to, typ, payload, stateLen)
}

// Recv implements netsim.Medium: drain the node's whole inbox.
func (r *Router) Recv(id string) ([]netsim.Message, error) {
	n, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.inbox
	n.inbox = nil
	sortMessages(out)
	return out, nil
}

// RecvWait blocks until the node's inbox is non-empty (or its connection
// fails), then drains it like Recv. It is the receive primitive for
// event-driven nodes that are woken only by their own inbox rather than
// pumped by a lockstep orchestrator. Peer deaths wake it too, as
// netsim.TypePeerDown messages; Detach/Close wake it with an error.
func (r *Router) RecvWait(id string) ([]netsim.Message, error) {
	n, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.inbox) == 0 {
		if n.err != nil {
			return nil, n.err
		}
		n.arrive.Wait()
	}
	out := n.inbox
	n.inbox = nil
	sortMessages(out)
	return out, nil
}

// RecvType implements netsim.Medium: drain messages of one type.
func (r *Router) RecvType(id, typ string) ([]netsim.Message, error) {
	n, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var out, rest []netsim.Message
	for _, m := range n.inbox {
		if m.Type == typ {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	n.inbox = rest
	sortMessages(out)
	return out, nil
}

// sortMessages orders deterministically by (Type, From), matching the
// simulator.
func sortMessages(msgs []netsim.Message) {
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].Type != msgs[j].Type {
			return msgs[i].Type < msgs[j].Type
		}
		return msgs[i].From < msgs[j].From
	})
}

var _ netsim.Medium = (*Router)(nil)

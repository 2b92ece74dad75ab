// Package transport carries the protocols over real TCP sockets with the
// same delivery contract as the in-memory simulator: Broadcast/Send return
// only once the message sits in every recipient's inbox, so the lockstep
// orchestrators of internal/core and internal/baseline run unchanged over
// a genuine network stack.
//
// Topology: a Hub process relays frames between Routers. A Router holds
// one TCP connection to the hub, dialed on its first Attach, and any
// number of local nodes registered over it; one read loop per Router
// serves them all, and a node is an inbox plus a meter. Every frame
// crosses the hub, even when sender and recipients share a Router. For
// each message the hub groups the recipients by connection and writes one
// frame per connection, listing that connection's recipient ids. The
// sender's own connection gets its group first, as an own frame carrying
// the sender's frame seq; every other connection gets a relay, which its
// Router files into each listed inbox and answers with one
// acknowledgement. Once every other connection acknowledged, the hub sends
// the sender its done frame, giving the synchronous semantics
// netsim.Medium promises. The own frame needs no acknowledgement: TCP
// keeps one connection's frames in order and the Router's read loop
// handles them in that order, so the own frame is filed before the done
// that follows it is read. When the own group is the only one, the own
// frame is the done: a broadcast between nodes of one Router is one msg
// frame up and one own frame down.
//
// Failure semantics: the hub gives every blocked sender an explicit
// outcome. Pending deliveries are keyed by a hub-assigned delivery id, so
// the independently numbered frames of concurrent Routers cannot collide.
// An acknowledgement names any listed recipient that was no longer
// attached, and the sender's done frame then names it: the send fails
// with a *PeerDownError. A recipient of an own frame no longer attached
// fails the send the same way, at once or, when a done follows, through
// the done. When a connection drops, every delivery still
// waiting on its acknowledgement is settled the same way, naming a node of
// that connection; deliveries the connection originated are dropped; and
// each surviving connection receives one peer-down frame per departed
// node, which its Router surfaces in every local inbox as a
// netsim.TypePeerDown message — the trigger for the application to re-key
// via Leave. Detach announces one node's departure with a bye frame and
// leaves its siblings on the connection untouched. On top of that, every
// Router send carries a deadline (SetSendTimeout, default
// DefaultSendTimeout) so no Broadcast/Send can block unboundedly even if
// the hub itself wedges.
//
// Frame format (all fields via internal/wire):
//
//	kind ‖ seq ‖ from ‖ to ‖ type ‖ stateLen ‖ payload ‖ n ‖ id_1 … id_n
//
// The last field is a recipient list of n ids. Kinds, Router→hub: "hello"
// (register node From; Seq is echoed in the answer), "bye" (node From
// detached), "msg" (data from node From; the hub refuses it with a
// "reject" unless From registered on the same connection), "ack"
// (delivery Seq filed; the list names recipients no longer attached).
// Hub→Router: "relay" (a message with the hub's delivery id as Seq, for
// the listed local recipients; acknowledged), "own" (the sender's own
// message Seq, for the listed recipients on its own connection; never
// acknowledged, and it ends the send), "own+" (the same, with a done to
// follow once the other connections acknowledged), "done" (hello
// confirmed, or message Seq delivered; a non-empty From names a recipient
// that died first), "reject" (hello of an id already registered, or a
// forged msg; the connection stays open), "down" (node From departed).
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
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
	kindHello    = "hello"
	kindBye      = "bye"
	kindMsg      = "msg"
	kindRelay    = "relay"
	kindOwn      = "own"  // the sender's own group; ends the send
	kindOwnFirst = "own+" // the sender's own group; a done follows
	kindAck      = "ack"
	kindDone     = "done"
	kindReject   = "reject"
	kindDown     = "down"
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

var (
	errRefused      = errors.New("transport: refused by the hub")
	errRouterClosed = errors.New("transport: router closed")
)

// PeerDownError reports that a recipient disconnected before confirming a
// delivery (or that a relay write to it failed). The message may or may
// not have reached the peer; the group should treat it as dead and re-key.
type PeerDownError struct{ Peer string }

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("transport: peer %q went down before acknowledging delivery", e.Peer)
}

// Is lets errors.Is(err, ErrPeerDown) match.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// frame is the unit of exchange between Routers and the hub.
type frame struct {
	Kind     string
	Seq      uint64
	From     string
	To       string // empty = broadcast
	Type     string
	StateLen uint64
	Payload  []byte
	Rcpt     []string // relay, own: local recipients; ack: recipients no longer attached
}

// Frame size limits: a frame body is at most maxFrame bytes, read in
// chunks that start at readChunk, so a length prefix alone cannot make the
// reader allocate more than the bytes that actually arrive.
const (
	maxFrame  = 64 << 20
	readChunk = 64 << 10
)

// writeFrame serialises a frame with a 4-byte length prefix, prefix and
// body encoded into one buffer and written in one call.
func writeFrame(w io.Writer, f *frame) error {
	n := 4 + len(f.Kind) + 8 + 4 + len(f.From) + 4 + len(f.To) + 4 + len(f.Type) + 8 + 4 + len(f.Payload) + 8
	for _, id := range f.Rcpt {
		n += 4 + len(id)
	}
	buf := wire.NewSizedBuffer(4 + n).
		PutLen(n).
		PutString(f.Kind).
		PutUint(f.Seq).
		PutString(f.From).
		PutString(f.To).
		PutString(f.Type).
		PutUint(f.StateLen).
		PutBytes(f.Payload).
		PutUint(uint64(len(f.Rcpt)))
	for _, id := range f.Rcpt {
		buf.PutString(id)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readFrame parses one length-prefixed frame. A connection's reader is
// buffered (one bufio.Reader per connection, for its whole life), so a
// frame usually costs one read(2) or none. The payload aliases the
// frame's own buffer, which grows as the body arrives: a frame's
// allocation is bounded by the bytes read, not by its length prefix.
func readFrame(r io.Reader) (*frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(uint32(lenBuf[0])<<24 | uint32(lenBuf[1])<<16 | uint32(lenBuf[2])<<8 | uint32(lenBuf[3]))
	if n < 0 || n > maxFrame {
		return nil, fmt.Errorf("transport: frame length %d out of range", n)
	}
	body := make([]byte, min(n, readChunk))
	for filled := 0; ; {
		k, err := io.ReadFull(r, body[filled:])
		if err != nil {
			return nil, err
		}
		if filled += k; filled == n {
			break
		}
		body = append(body, make([]byte, min(n-filled, filled))...)
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
	// Every id takes at least its 4-byte length prefix, so the count is
	// checked against the bytes left before the list is allocated.
	if count := rd.Uint(); count > 0 && rd.Err() == nil {
		if count > uint64(rd.Remaining()/4) {
			return nil, fmt.Errorf("transport: bad frame: %d recipients in %d bytes", count, rd.Remaining())
		}
		f.Rcpt = make([]string, count)
		for i := range f.Rcpt {
			f.Rcpt[i] = rd.String()
		}
	}
	if err := rd.Close(); err != nil {
		return nil, fmt.Errorf("transport: bad frame: %w", err)
	}
	return f, nil
}

// link is one TCP connection between a Router and the hub. Writes are
// serialised so frames from concurrent senders never interleave.
type link struct {
	c   net.Conn
	wmu sync.Mutex
}

func (l *link) write(f *frame) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return writeFrame(l.c, f)
}

// Hub is the relay at the centre of the star topology.
type Hub struct {
	ln net.Listener

	mu sync.Mutex
	//gkalint:guard mu
	links   map[*link]bool       // every open connection
	nodes   map[string]*link     // registered node id → its connection
	pending map[uint64]*delivery // by hub-assigned delivery id
	lastID  uint64
	closed  bool
	//gkalint:guard -
	wg sync.WaitGroup
}

// delivery tracks the outstanding acknowledgements of one relayed
// message: one per connection it was relayed on, the sender's own
// excepted.
type delivery struct {
	sender  *link  // the connection the message came from
	seq     uint64 // the sender's frame seq, echoed in the done frame
	from    string // the sending node
	waiting []relayGroup
	// failed names the first recipient that was gone (or whose relay
	// write failed) before acknowledging; it is reported to the sender in
	// the done-frame when the waiting set drains.
	failed string
}

// relayGroup is the recipients of one message on one connection.
type relayGroup struct {
	l   *link
	ids []string
}

// NewHub starts a hub listening on addr (e.g. "127.0.0.1:0").
func NewHub(addr string) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	h := &Hub{ln: ln, links: map[*link]bool{}, nodes: map[string]*link{}, pending: map[uint64]*delivery{}}
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
	for l := range h.links {
		_ = l.c.Close()
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

// serve handles one Router connection: hellos and byes register and
// unregister its nodes, msg frames are relayed and ack frames settle
// deliveries. On disconnect the connection's footprint is cleaned up.
func (h *Hub) serve(conn net.Conn) {
	defer h.wg.Done()
	l := &link{c: conn}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	h.links[l] = true
	h.mu.Unlock()
	defer h.disconnect(l)
	rd := bufio.NewReader(conn)
	for {
		f, err := readFrame(rd)
		if err != nil {
			return
		}
		switch f.Kind {
		case kindHello:
			h.register(l, f)
		case kindBye:
			h.unregister(l, f.From)
		case kindMsg:
			h.relay(l, f)
		case kindAck:
			h.settle(f.Seq, l, f.Rcpt)
		}
	}
}

// register answers a hello: a done frame registers the id on l, a reject
// frame refuses an id already registered (the live node is undisturbed,
// and so is l). The write lock is held from the registration to the
// answer, so no relay listing the id can reach l before its confirmation.
func (h *Hub) register(l *link, f *frame) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	h.mu.Lock()
	_, dup := h.nodes[f.From]
	ok := !dup && !h.closed && f.From != ""
	if ok {
		h.nodes[f.From] = l
	}
	h.mu.Unlock()
	reply := &frame{Kind: kindDone, Seq: f.Seq}
	if !ok {
		reply = &frame{Kind: kindReject, Seq: f.Seq, From: f.From}
	}
	_ = writeFrame(l.c, reply)
}

// unregister handles a bye: node id leaves l, the deliveries it
// originated are dropped (its Router already failed them), and the
// survivors are told.
func (h *Hub) unregister(l *link, id string) {
	h.mu.Lock()
	if h.nodes[id] != l {
		h.mu.Unlock()
		return
	}
	delete(h.nodes, id)
	for key, d := range h.pending {
		if d.sender == l && d.from == id {
			delete(h.pending, key)
		}
	}
	survivors := h.survivorsLocked()
	h.mu.Unlock()
	announce(survivors, []string{id})
}

// disconnect removes a departed connection and releases everything blocked
// on it: deliveries it originated are dropped (the senders are gone),
// deliveries waiting on its ack are settled as failed, and the surviving
// connections get a peer-down frame per departed node.
func (h *Hub) disconnect(l *link) {
	_ = l.c.Close()
	h.mu.Lock()
	delete(h.links, l)
	var gone []string
	for id, nl := range h.nodes {
		if nl == l {
			delete(h.nodes, id)
			gone = append(gone, id)
		}
	}
	var settled []*delivery
	for key, d := range h.pending {
		if d.sender == l {
			delete(h.pending, key)
			continue
		}
		if i := d.waitingOn(l); i >= 0 {
			if d.failed == "" {
				d.failed = d.waiting[i].ids[0]
			}
			if d.drop(i) {
				delete(h.pending, key)
				settled = append(settled, d)
			}
		}
	}
	var survivors []*link
	if !h.closed {
		survivors = h.survivorsLocked()
	}
	h.mu.Unlock()
	for _, d := range settled {
		_ = d.sender.write(&frame{Kind: kindDone, Seq: d.seq, From: d.failed})
	}
	announce(survivors, gone)
}

// survivorsLocked lists the connections with at least one registered
// node. The caller holds h.mu.
func (h *Hub) survivorsLocked() []*link {
	var out []*link
	for _, l := range h.nodes {
		if !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out
}

// announce sends each surviving connection one down frame per departed
// node.
func announce(survivors []*link, gone []string) {
	for _, id := range gone {
		for _, l := range survivors {
			_ = l.write(&frame{Kind: kindDown, From: id})
		}
	}
}

// relay forwards a message to its recipients, one frame per connection.
// The sender's own connection gets its group first, as an own frame that
// is never acknowledged; the delivery pending on the other connections'
// acks is recorded only after it, so no done can overtake it on the
// sender's connection. With no other connection the own frame ends the
// send, and with no recipient at all the done is immediate. Write
// failures are surfaced: a connection whose socket rejects the frame is
// settled as failed instead of leaving the sender waiting on an ack that
// can never come.
func (h *Hub) relay(src *link, f *frame) {
	h.mu.Lock()
	// The sending node must be registered on this connection: a Router
	// cannot speak for another Router's nodes.
	if h.nodes[f.From] != src {
		h.mu.Unlock()
		_ = src.write(&frame{Kind: kindReject, Seq: f.Seq, From: f.From})
		return
	}
	var own []string
	var groups []relayGroup
	add := func(id string, l *link) {
		if l == src {
			own = append(own, id)
			return
		}
		for i := range groups {
			if groups[i].l == l {
				groups[i].ids = append(groups[i].ids, id)
				return
			}
		}
		groups = append(groups, relayGroup{l, []string{id}})
	}
	if f.To == "" {
		for id, l := range h.nodes {
			if id != f.From {
				add(id, l)
			}
		}
	} else if l := h.nodes[f.To]; l != nil && f.To != f.From {
		add(f.To, l)
	}
	h.mu.Unlock()
	if len(own) == 0 && len(groups) == 0 {
		// A broadcast to an empty group (or a self-addressed send, which
		// the hub never loops back) is vacuously delivered; a directed
		// send to an absent (dead or never-registered) recipient is a
		// failure the sender must see — mirroring netsim.Async's crash
		// semantics — not a silent success.
		done := &frame{Kind: kindDone, Seq: f.Seq}
		if f.To != "" && f.To != f.From {
			done.From = f.To
		}
		_ = src.write(done)
		return
	}
	if len(own) > 0 {
		out := *f
		out.Kind, out.Rcpt = kindOwn, own
		if len(groups) > 0 {
			out.Kind = kindOwnFirst
		}
		if src.write(&out) != nil || len(groups) == 0 {
			// Either the own frame ended the send, or the sender's
			// connection broke and its Router fails the send.
			return
		}
	}
	h.mu.Lock()
	h.lastID++
	id := h.lastID
	// The delivery gets its own copy of the groups: acks shrink it while
	// the writes below still walk them.
	h.pending[id] = &delivery{sender: src, seq: f.Seq, from: f.From, waiting: slices.Clone(groups)}
	h.mu.Unlock()

	for _, g := range groups {
		out := *f
		out.Kind, out.Seq, out.Rcpt = kindRelay, id, g.ids
		if err := g.l.write(&out); err != nil {
			h.settle(id, g.l, g.ids[:1])
		}
	}
}

// settle records one connection's acknowledgement, with the listed
// recipients it found gone, and sends the sender its done frame once
// every connection has answered.
func (h *Hub) settle(id uint64, by *link, gone []string) {
	h.mu.Lock()
	d := h.pending[id]
	i := -1
	if d != nil {
		i = d.waitingOn(by)
	}
	if i < 0 {
		h.mu.Unlock()
		return
	}
	// Only a recipient listed on this connection can be reported gone.
	for _, g := range gone {
		if d.failed == "" && slices.Contains(d.waiting[i].ids, g) {
			d.failed = g
		}
	}
	if !d.drop(i) {
		h.mu.Unlock()
		return
	}
	delete(h.pending, id)
	h.mu.Unlock()
	_ = d.sender.write(&frame{Kind: kindDone, Seq: d.seq, From: d.failed})
}

// waitingOn returns the index of l's group among the unacknowledged ones,
// or -1.
func (d *delivery) waitingOn(l *link) int {
	for i, g := range d.waiting {
		if g.l == l {
			return i
		}
	}
	return -1
}

// drop removes the i-th outstanding group and reports whether none is
// left.
func (d *delivery) drop(i int) bool {
	last := len(d.waiting) - 1
	d.waiting[i] = d.waiting[last]
	d.waiting = d.waiting[:last]
	return last == 0
}

// NodeCount reports currently registered nodes (diagnostics).
func (h *Hub) NodeCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.nodes)
}

// PendingCount reports deliveries still waiting on acknowledgements
// (diagnostics; a healthy quiescent hub reports 0).
func (h *Hub) PendingCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// node is one endpoint attached through a Router: an inbox and a meter.
type node struct {
	id string
	m  *meter.Meter

	mu     sync.Mutex
	arrive *sync.Cond // signalled on inbox growth and on failure
	//gkalint:guard mu
	inbox []netsim.Message
	err   error
	//gkalint:guard -
}

// slot is a frame awaiting the hub's answer: a hello or a message.
type slot struct {
	n  *node
	ch chan error // buffered (cap 1); whoever deletes the slot sends once
	// failed is a recipient of an own frame found no longer attached,
	// reported when the done that follows carries no failure of its own.
	failed error
}

// Router bundles local nodes behind the netsim.Medium interface over one
// TCP connection to the hub, and routes the medium methods by node id
// exactly like the in-memory simulator. A Router whose connection is lost
// (or closed) stays failed; reconnect with a new Router.
type Router struct {
	addr string
	dial sync.Once

	mu sync.Mutex
	//gkalint:guard mu
	conn    *link // nil until the first Attach
	err     error // set once the connection is lost or the Router closed
	nodes   map[string]*node
	done    map[uint64]slot // frames awaiting the hub's answer, by seq
	seq     uint64
	timeout time.Duration
	//gkalint:guard -
}

// NewRouter creates a router that will dial the given hub address.
func NewRouter(hubAddr string) *Router {
	return &Router{addr: hubAddr, nodes: map[string]*node{}, done: map[uint64]slot{}, timeout: DefaultSendTimeout}
}

// SetSendTimeout bounds how long every subsequent Broadcast/Send may wait
// for the hub's delivery confirmation; past the deadline the send returns
// an ErrSendTimeout-wrapped error instead of blocking forever. d <= 0
// removes the bound (the pre-deadline behaviour). Registration in Attach
// waits under the same bound.
func (r *Router) SetSendTimeout(d time.Duration) {
	r.mu.Lock()
	r.timeout = d
	r.mu.Unlock()
}

// connect dials the hub once, for the Router's whole life, and starts the
// read loop that serves every local node.
func (r *Router) connect() {
	c, err := net.Dial("tcp", r.addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err != nil:
		if r.err == nil {
			r.err = fmt.Errorf("transport: dial: %w", err)
		}
	case r.err != nil: // closed while dialing
		_ = c.Close()
	default:
		r.conn = &link{c: c}
		//gkalint:bounded readLoop exits when the hub connection closes (router Close or hub loss)
		go r.readLoop(r.conn)
	}
}

// Attach registers a node id at the hub over the Router's connection,
// dialing it on first use. The meter may be nil.
func (r *Router) Attach(id string, m *meter.Meter) error {
	if id == "" {
		return errors.New("transport: empty node id")
	}
	r.dial.Do(r.connect)
	n := &node{id: id, m: m}
	n.arrive = sync.NewCond(&n.mu)
	ch := make(chan error, 1)
	r.mu.Lock()
	if r.err != nil {
		err := r.err
		r.mu.Unlock()
		return err
	}
	if _, dup := r.nodes[id]; dup {
		r.mu.Unlock()
		return fmt.Errorf("transport: duplicate node %q", id)
	}
	// Install the node before its hello leaves, so a relay that lists it
	// lands in its inbox even if it overtakes the confirmation.
	r.nodes[id] = n
	seq := r.slotLocked(n, ch)
	conn, timeout := r.conn, r.timeout
	r.mu.Unlock()
	err := conn.write(&frame{Kind: kindHello, Seq: seq, From: id})
	if err == nil {
		err = r.await(seq, ch, timeout)
	}
	if err == nil {
		return nil
	}
	r.mu.Lock()
	delete(r.done, seq)
	if r.nodes[id] == n {
		delete(r.nodes, id)
	}
	r.mu.Unlock()
	n.fail(err)
	if !errors.Is(err, errRefused) {
		// The hub may still register the id: withdraw it.
		_ = conn.write(&frame{Kind: kindBye, From: id})
	}
	return fmt.Errorf("transport: registration of %q not confirmed: %w", id, err)
}

// Detach removes one node: its pending sends fail, goroutines blocked in
// its RecvWait wake with an error, and the hub settles whatever was
// waiting on the node and announces its departure to the survivors. The
// other nodes on the connection are untouched.
func (r *Router) Detach(id string) {
	r.mu.Lock()
	n := r.nodes[id]
	if n == nil {
		r.mu.Unlock()
		return
	}
	delete(r.nodes, id)
	err := fmt.Errorf("transport: node %q detached", id)
	chs := r.takeSlotsLocked(n)
	conn := r.conn
	r.mu.Unlock()
	answerAll(chs, err)
	n.fail(err)
	_ = conn.write(&frame{Kind: kindBye, From: id})
}

// Close detaches every node and closes the hub connection; the hub
// announces the departures.
func (r *Router) Close() {
	r.mu.Lock()
	if r.err == nil {
		r.err = errRouterClosed
	}
	nodes := r.nodes
	r.nodes = map[string]*node{}
	chs := r.takeSlotsLocked(nil)
	conn := r.conn
	r.mu.Unlock()
	answerAll(chs, errRouterClosed)
	for _, n := range nodes {
		n.fail(errRouterClosed)
	}
	if conn != nil {
		_ = conn.c.Close()
	}
}

// slotLocked numbers a frame of node n and arms its answer slot. The
// caller holds r.mu.
func (r *Router) slotLocked(n *node, ch chan error) uint64 {
	r.seq++
	r.done[r.seq] = slot{n: n, ch: ch}
	return r.seq
}

// takeSlotsLocked disarms every slot of node n (of every node when n is
// nil) and returns their channels for answerAll. The caller holds r.mu.
func (r *Router) takeSlotsLocked(n *node) []chan error {
	var chs []chan error
	for seq, s := range r.done {
		if n == nil || s.n == n {
			delete(r.done, seq)
			chs = append(chs, s.ch)
		}
	}
	return chs
}

// answerAll answers disarmed slots with err.
func answerAll(chs []chan error, err error) {
	for _, ch := range chs {
		ch <- err //gkalint:unbounded answer channels are buffered (cap 1); disarming the slot first made this the only sender
	}
}

// answer settles the slot of frame seq, if it is still armed, with err
// or, when err is nil, with the failure recorded on the slot.
func (r *Router) answer(seq uint64, err error) {
	r.mu.Lock()
	s, ok := r.done[seq]
	delete(r.done, seq)
	r.mu.Unlock()
	if ok {
		if err == nil {
			err = s.failed
		}
		s.ch <- err //gkalint:unbounded buffered (cap 1); deleting the slot under r.mu made this the only sender
	}
}

// await waits for the answer to frame seq, or until timeout (none when
// timeout <= 0) has passed, in which case it disarms the slot and returns
// ErrSendTimeout.
func (r *Router) await(seq uint64, ch chan error, timeout time.Duration) error {
	if timeout <= 0 {
		return <-ch //gkalint:unbounded the caller explicitly disabled the send deadline (SetSendTimeout(0)); losing the connection settles the slot
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-ch:
		return err
	case <-timer.C:
		r.mu.Lock()
		_, armed := r.done[seq]
		delete(r.done, seq)
		r.mu.Unlock()
		if !armed {
			// The answer raced the deadline; honour it.
			return <-ch //gkalint:unbounded slot already disarmed, so the buffered answer send has happened or is in flight; returns promptly
		}
		return ErrSendTimeout
	}
}

// fail records a terminal error and wakes the node's RecvWait.
func (n *node) fail(err error) {
	n.mu.Lock()
	if n.err == nil {
		n.err = err
	}
	n.arrive.Broadcast()
	n.mu.Unlock()
}

// push appends a message to the node's inbox and wakes its RecvWait.
func (n *node) push(m netsim.Message) {
	n.mu.Lock()
	n.inbox = append(n.inbox, m)
	n.arrive.Broadcast()
	n.mu.Unlock()
}

// readLoop drains the hub connection: relays go to the listed inboxes
// (with one ack back to the hub), own frames too (with none), done and
// reject frames answer blocked hellos and sends, down frames surface as
// peer-down inbox messages of every local node. When the connection
// fails, every node on it fails.
func (r *Router) readLoop(conn *link) {
	rd := bufio.NewReader(conn.c)
	for {
		f, err := readFrame(rd)
		if err == nil && f.Kind == kindRelay {
			err = conn.write(&frame{Kind: kindAck, Seq: f.Seq, Rcpt: r.deliver(f)})
		}
		if err != nil {
			r.lost(err)
			return
		}
		switch f.Kind {
		case kindOwn, kindOwnFirst:
			r.fileOwn(f)
		case kindDone:
			var res error
			if f.From != "" {
				res = &PeerDownError{Peer: f.From}
			}
			r.answer(f.Seq, res)
		case kindReject:
			r.answer(f.Seq, fmt.Errorf("%w (node %q)", errRefused, f.From))
		case kindDown:
			// A peer died: surface it in every local inbox so event-driven
			// nodes blocked in RecvWait wake and can trigger a re-key.
			r.mu.Lock()
			for id, n := range r.nodes {
				if id != f.From {
					mPeerDowns.Inc()
					n.push(netsim.PeerDown(f.From))
				}
			}
			r.mu.Unlock()
		}
	}
}

// deliver files a relayed message into the inbox of every listed local
// node and returns the listed ids no longer attached.
func (r *Router) deliver(f *frame) (gone []string) {
	msg := netsim.Message{From: f.From, To: f.To, Type: f.Type, Payload: f.Payload}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range f.Rcpt {
		n := r.nodes[id]
		if n == nil {
			gone = append(gone, id)
			continue
		}
		n.push(msg)
		n.m.Rx(len(f.Payload))
		n.m.RxState(int(f.StateLen))
	}
	return gone
}

// fileOwn files an own frame into the listed inboxes. A listed recipient
// no longer attached fails the send with a *PeerDownError naming it. An
// "own" frame ends the send and answers its slot; after an "own+" frame
// the failure waits on the slot for the done.
func (r *Router) fileOwn(f *frame) {
	var err error
	if gone := r.deliver(f); len(gone) > 0 {
		err = &PeerDownError{Peer: gone[0]}
	}
	if f.Kind == kindOwn {
		r.answer(f.Seq, err)
		return
	}
	if err == nil {
		return
	}
	r.mu.Lock()
	if s, ok := r.done[f.Seq]; ok && s.failed == nil {
		s.failed = err
		r.done[f.Seq] = s
	}
	r.mu.Unlock()
}

// lost fails the Router after its connection broke: every armed slot gets
// err, and every node's RecvWait wakes with it.
func (r *Router) lost(err error) {
	err = fmt.Errorf("transport: hub connection lost: %w", err)
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	chs := r.takeSlotsLocked(nil)
	for _, n := range r.nodes {
		n.fail(err)
	}
	conn := r.conn
	r.mu.Unlock()
	answerAll(chs, err)
	_ = conn.c.Close()
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
// delivery to all recipients, the Router's deadline expires, or the
// connection fails — it can no longer block unboundedly. A recipient
// dying mid-delivery surfaces as a *PeerDownError.
func (r *Router) send(from, to, typ string, payload []byte, stateLen int) error {
	ch := make(chan error, 1)
	r.mu.Lock()
	n, ok := r.nodes[from]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("transport: unknown node %q", from)
	}
	mSends.Inc()
	if r.err != nil {
		err := r.err
		r.mu.Unlock()
		return err
	}
	seq := r.slotLocked(n, ch)
	conn, timeout := r.conn, r.timeout
	r.mu.Unlock()
	err := conn.write(&frame{
		Kind: kindMsg, Seq: seq, From: from, To: to, Type: typ,
		StateLen: uint64(stateLen), Payload: payload,
	})
	if err != nil {
		// The frame never left: release the answer slot instead of
		// leaking it (and the channel) forever.
		r.mu.Lock()
		delete(r.done, seq)
		r.mu.Unlock()
		return err
	}
	n.m.Tx(len(payload))
	n.m.TxState(stateLen)
	if err := r.await(seq, ch, timeout); err != ErrSendTimeout {
		return err
	}
	mSendTimeouts.Inc()
	return fmt.Errorf("transport: delivery %d from %q unconfirmed after %v: %w",
		seq, from, timeout, ErrSendTimeout)
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

// RecvWait blocks until the node's inbox is non-empty (or the node
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
	slices.SortStableFunc(msgs, func(a, b netsim.Message) int {
		if c := strings.Compare(a.Type, b.Type); c != 0 {
			return c
		}
		return strings.Compare(a.From, b.From)
	})
}

var _ netsim.Medium = (*Router)(nil)

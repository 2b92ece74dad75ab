// Package serve hosts many concurrent group-key-agreement groups inside
// one process. A Host owns any number of goroutine-safe idgka.Members,
// demultiplexes inbound packets to the owning member — the wire envelope
// then routes each packet to the owning session inside the member's
// machine — and drives a single shared deadline ticker across every live
// session (the taschain global-ticker shape: one clock, many registered
// group contexts). All work is dispatched over a bounded worker pool, one
// lane per shard, so thousands of concurrent groups per process make
// progress without a goroutine per session: a member's packets and ticks
// always execute on its shard's one worker (per-member ordering for
// free), while members on different shards proceed in parallel.
//
// The Host is transport-agnostic: outbound packets go through the
// Transmit callback (a transport.Router for TCP deployments, a loopback
// fan-out for in-process benchmarks), and inbound packets arrive through
// Deliver from whatever pump drains the transport.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"idgka"
	"idgka/internal/engine"
	"idgka/internal/metrics"
)

// Transmit sends one outbound packet on behalf of member from. An empty
// p.To means broadcast to the group; the transport decides the fan-out.
// Errors are counted (Stats.SendErrors) but not fatal to the host — a
// dead route surfaces through peer-down frames and session deadlines.
type Transmit func(from string, p idgka.Packet) error

// Config tunes a Host. The zero value is serviceable: one shard per CPU,
// a 100 ms shared ticker and no per-run deadline.
type Config struct {
	// Shards is the number of dispatch lanes (worker goroutines). Members
	// are assigned to shards by identity hash; a member's traffic is
	// serialized on its shard. 0 selects GOMAXPROCS.
	Shards int
	// TickInterval is the shared deadline ticker's period: every interval
	// the host walks all live runs and calls Session.Tick, driving the
	// retransmit/timeout runtime. 0 selects 100 ms; negative disables
	// ticking (tests that control time themselves).
	TickInterval time.Duration
	// Deadline, when positive, is armed on every run at start and
	// re-armed after each Tick-driven restart, bounding how long a run
	// may sit on traffic that never arrives before it retransmits (and,
	// budget exhausted, fails with idgka.ErrSessionTimeout).
	Deadline time.Duration
	// MaxShardQueue is the admission high watermark on a shard's queue
	// depth: a Start aimed at a shard holding this many undispatched
	// tasks is rejected with ErrOverloaded instead of deepening the
	// backlog. 0 disables the depth watermark. Delivered protocol
	// traffic is never shed — only new establishments are refused.
	MaxShardQueue int
	// MaxShardQueueAge is the admission high watermark on a shard's lag:
	// a Start aimed at a shard whose oldest queued task has waited this
	// long is rejected with ErrOverloaded. 0 disables the age watermark.
	MaxShardQueueAge time.Duration
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return max(1, runtime.GOMAXPROCS(0))
}

func (c Config) tickInterval() time.Duration {
	if c.TickInterval < 0 {
		return 0
	}
	if c.TickInterval == 0 {
		return 100 * time.Millisecond
	}
	return c.TickInterval
}

// Stats is a point-in-time snapshot of a Host's counters.
type Stats struct {
	Members    int
	LiveRuns   int
	Delivered  uint64
	SendErrors uint64
	// Sheds counts Start calls rejected with ErrOverloaded by admission
	// control (zero while no watermark is configured).
	Sheds uint64
	// QueueDepth is the current total of undispatched tasks across all
	// shards; PeakQueueDepth is the deepest any single shard's queue has
	// been over the host's lifetime — the number to compare against
	// Config.MaxShardQueue when sizing watermarks.
	QueueDepth     int
	PeakQueueDepth int
}

// Host is a sharded multi-member, multi-group serving context. Create it
// with NewHost, add members, then start flows with Start and feed the
// transport's inbound traffic through Deliver.
type Host struct {
	cfg Config
	tx  Transmit

	mu sync.RWMutex
	//gkalint:guard mu
	members map[string]*hostMember
	//gkalint:callback
	onPeerDown func(owner *idgka.Member, peer string)
	closed     bool
	//gkalint:guard -

	shards []*shard
	stop   chan struct{}
	wg     sync.WaitGroup

	delivered  atomic.Uint64
	sendErrors atomic.Uint64
	sheds      atomic.Uint64
	peakDepth  metrics.Gauge // unregistered: this host's own high-water mark
}

// hostMember is one member plus the live runs the host drives for it.
type hostMember struct {
	mb         *idgka.Member
	sh         *shard
	tickQueued atomic.Bool

	mu sync.Mutex
	//gkalint:guard mu
	runs map[string]*Run
}

func (hm *hostMember) liveRuns() []*Run {
	hm.mu.Lock()
	defer hm.mu.Unlock()
	out := make([]*Run, 0, len(hm.runs))
	for _, r := range hm.runs {
		out = append(out, r)
	}
	return out
}

// task is one unit of shard work: a packet delivery or a tick sweep.
// enq stamps admission into the shard queue, the base of the queue-age
// watermark and the queue-delay histogram.
type task struct {
	hm   *hostMember
	pkt  idgka.Packet
	tick bool
	now  time.Time
	enq  time.Time
}

// shard is one dispatch lane: an unbounded FIFO drained by a single
// worker goroutine. The queue must not block producers — a blocking
// bounded queue would deadlock loopback transports whose workers transmit
// into each other's shards; memory is bounded by shedding at ADMISSION
// instead (Config.MaxShardQueue / MaxShardQueueAge reject new Starts
// once the lane lags, while delivered protocol traffic always queues).
type shard struct {
	idx  int
	mu   sync.Mutex
	cond *sync.Cond
	//gkalint:guard mu
	q      []task
	closed bool
	// runs/groups is the shard's admission-fairness ledger: live runs
	// total and per session id, maintained by Host as runs register and
	// settle.
	runs   int
	groups map[string]int
	//gkalint:guard -
}

func newShard(idx int) *shard {
	s := &shard{idx: idx, groups: map[string]int{}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue appends one task and reports the queue depth after the append
// (-1 when the shard is closed and the task dropped).
func (s *shard) enqueue(t task) int {
	t.enq = time.Now()
	s.mu.Lock()
	depth := -1
	if !s.closed {
		s.q = append(s.q, t)
		depth = len(s.q)
		s.cond.Signal()
	}
	s.mu.Unlock()
	return depth
}

func (s *shard) next() (task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.q) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.q) == 0 {
		return task{}, false
	}
	t := s.q[0]
	s.q[0] = task{} // release the payload; append reuses the array tail
	s.q = s.q[1:]
	return t, true
}

// pressure reports the shard's queue depth and the age of its oldest
// queued task — the two admission watermarks.
func (s *shard) pressure(now time.Time) (depth int, age time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.q) > 0 {
		age = now.Sub(s.q[0].enq)
	}
	return len(s.q), age
}

// depth reports the current queue depth.
func (s *shard) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

// addRun/dropRun maintain the fairness ledger; exactly one drop pairs
// with every add (the run-registry delete sites guarantee it).
func (s *shard) addRun(sid string) {
	s.mu.Lock()
	s.groups[sid]++
	s.runs++
	s.mu.Unlock()
	mLiveRuns.Add(1)
}

func (s *shard) dropRun(sid string) {
	s.mu.Lock()
	if n := s.groups[sid]; n <= 1 {
		delete(s.groups, sid)
	} else {
		s.groups[sid] = n - 1
	}
	s.runs--
	s.mu.Unlock()
	mLiveRuns.Add(-1)
}

// groupLoad reports the shard's live-run total and the share one group
// holds of it.
func (s *shard) groupLoad(sid string) (runs, group int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs, s.groups[sid]
}

func (s *shard) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// NewHost builds a host and starts its shard workers and ticker.
func NewHost(cfg Config, tx Transmit) *Host {
	h := &Host{
		cfg:     cfg,
		tx:      tx,
		members: map[string]*hostMember{},
		stop:    make(chan struct{}),
	}
	for i := 0; i < cfg.shards(); i++ {
		s := newShard(i)
		h.shards = append(h.shards, s)
		h.wg.Add(1)
		go h.worker(s)
	}
	if h.cfg.tickInterval() > 0 {
		h.wg.Add(1)
		go h.tickLoop()
	}
	return h
}

// shardIndex maps a member identity onto a dispatch lane.
func shardIndex(id string, n int) int {
	f := fnv.New32a()
	_, _ = f.Write([]byte(id))
	return int(f.Sum32() % uint32(n))
}

// AddMember registers a member with the host and installs the host's
// peer-down relay on it (replacing any handler the application set
// directly — use SetPeerDownHandler on the host instead).
func (h *Host) AddMember(mb *idgka.Member) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return errors.New("serve: host is closed")
	}
	id := mb.ID()
	if _, dup := h.members[id]; dup {
		h.mu.Unlock()
		return fmt.Errorf("serve: duplicate member %q", id)
	}
	hm := &hostMember{mb: mb, runs: map[string]*Run{}}
	hm.sh = h.shards[shardIndex(id, len(h.shards))]
	h.members[id] = hm
	h.mu.Unlock()
	// The member invokes peer-down handlers lock-free, so the relay (and
	// the application callback behind it) may call back into member and
	// host — e.g. to start eviction runs.
	mb.SetPeerDownHandler(func(peer string) {
		h.mu.RLock()
		fn := h.onPeerDown
		h.mu.RUnlock()
		if fn != nil {
			fn(mb, peer)
		}
	})
	return nil
}

// SetPeerDownHandler installs the host-level peer-death callback: it
// fires once per (member, dead peer) pair, identifying which hosted
// member observed the death. The callback may call back into the host
// (the idiomatic reaction starts LeaveSession runs for every group the
// member shares with the dead peer).
func (h *Host) SetPeerDownHandler(f func(owner *idgka.Member, peer string)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onPeerDown = f
}

// Member returns a hosted member by id, or nil.
func (h *Host) Member(id string) *idgka.Member {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if hm := h.members[id]; hm != nil {
		return hm.mb
	}
	return nil
}

// Deliver routes one inbound packet to the hosted member it addresses
// (enqueued on the member's shard; the wire envelope routes it further to
// the owning session). An empty to fans the packet out to every hosted
// member except the packet's sender — convenient for loopback transports;
// transports that already fan out (the TCP hub) pass the receiving
// member's id explicitly.
func (h *Host) Deliver(to string, p idgka.Packet) error {
	if to == "" {
		h.mu.RLock()
		targets := make([]*hostMember, 0, len(h.members))
		for id, hm := range h.members {
			if id != p.From {
				targets = append(targets, hm)
			}
		}
		h.mu.RUnlock()
		for _, hm := range targets {
			h.enqueue(hm.sh, task{hm: hm, pkt: p})
		}
		return nil
	}
	h.mu.RLock()
	hm := h.members[to]
	h.mu.RUnlock()
	if hm == nil {
		return fmt.Errorf("serve: unknown member %q", to)
	}
	h.enqueue(hm.sh, task{hm: hm, pkt: p})
	return nil
}

// enqueue is the host-side wrapper around shard.enqueue that maintains
// the queue-depth gauges and the host's peak-depth high-water mark.
func (h *Host) enqueue(s *shard, t task) {
	depth := s.enqueue(t)
	if depth < 0 {
		return // shard closed; the task was dropped, nothing queued
	}
	mQueueDepth.Add(1)
	d := int64(depth)
	mQueuePeak.SetMax(d)
	h.peakDepth.SetMax(d)
}

// Start begins one flow on a hosted member and returns its Run handle.
// sid names the flow's session id up front (the group identity admission
// control accounts fairness against); start builds the session under
// that id (e.g. mb.NewSession / mb.LeaveSession). The host admits the
// start against the member's shard watermarks BEFORE any session state
// exists — a shed Start returns ErrOverloaded with nothing registered,
// so retrying the same sid later is always safe. Once admitted, the host
// transmits the opening traffic, arms the configured deadline, and from
// then on completes the run from inbound traffic and ticks. A run under
// the same session id supersedes a previous live one, which is settled
// as superseded (mirroring the Session sid-reuse contract).
func (h *Host) Start(memberID, sid string, start func(mb *idgka.Member) (*idgka.Session, error)) (*Run, error) {
	h.mu.RLock()
	hm := h.members[memberID]
	closed := h.closed
	h.mu.RUnlock()
	if hm == nil || closed {
		return nil, fmt.Errorf("serve: unknown member %q (or host closed)", memberID)
	}
	if err := h.admit(hm, sid); err != nil {
		return nil, err
	}
	mStarts.Inc()
	// Session creation and the run-registry swap happen under one lock,
	// so concurrent Starts of one sid order identically at the member and
	// the host: the registry's prev is always the member-superseded
	// handle, never the live successor. (Safe to nest: start() never
	// fires peer-down handlers — those only arise from delivered
	// packets — so nothing re-enters the host while hm.mu is held.)
	hm.mu.Lock()
	sess, err := start(hm.mb)
	if err != nil {
		hm.mu.Unlock()
		return nil, err
	}
	if got := sess.SID(); got != sid {
		hm.mu.Unlock()
		sess.Close()
		return nil, fmt.Errorf("serve: start built session %q but declared sid %q", got, sid)
	}
	r := &Run{hm: hm, sess: sess, sid: sid, started: time.Now(), done: make(chan struct{})}
	prev := hm.runs[r.sid]
	hm.runs[r.sid] = r
	hm.mu.Unlock()
	if prev == nil {
		// A supersede replaces the registry slot in place, so the ledger
		// count carries over from prev; only a fresh slot adds.
		hm.sh.addRun(sid)
	}
	if d := h.cfg.Deadline; d > 0 {
		sess.SetDeadline(time.Now().Add(d))
	}
	if prev != nil {
		// Close marks the stale handle failed without disturbing the
		// successor's flow (the Session sid-reuse contract), so the
		// superseded run settles with a definite error.
		prev.sess.Close()
		prev.finalize()
	}
	// Re-check: a Close that raced this Start may have swept hm.runs
	// before the registration above and would leave the run unsettled
	// forever (workers and ticker are gone).
	h.mu.RLock()
	closed = h.closed
	h.mu.RUnlock()
	if closed {
		r.Cancel()
		return nil, errors.New("serve: host is closed")
	}
	h.transmit(memberID, sess.Outbox())
	h.settleRun(r) // opening transitions can already commit or fail
	return r, nil
}

// worker is one shard's dispatch loop.
func (h *Host) worker(s *shard) {
	defer h.wg.Done()
	for {
		t, ok := s.next()
		if !ok {
			return
		}
		mQueueDepth.Add(-1)
		mQueueDelay.ObserveSince(t.enq)
		if t.tick {
			h.tickMember(t.hm, t.now)
		} else {
			h.deliverTo(t.hm, t.pkt)
		}
	}
}

// deliverTo feeds one packet into a member and transmits the reactions.
func (h *Host) deliverTo(hm *hostMember, p idgka.Packet) {
	reactions := hm.mb.HandlePacket(p)
	h.delivered.Add(1)
	mDelivered.Inc()
	h.transmit(hm.mb.ID(), reactions)
	// The only run a packet can complete is the one its envelope names.
	if sid := engine.EnvelopeSID(p.Payload); sid != "" {
		hm.mu.Lock()
		r := hm.runs[sid]
		hm.mu.Unlock()
		if r != nil {
			h.settleRun(r)
		}
	}
}

// tickLoop is the shared deadline ticker: one clock for every hosted
// member, fanned out as shard tasks so tick work is serialized with the
// member's deliveries and bounded by the worker pool. A member with a
// tick already queued is skipped (ticks coalesce under backlog).
func (h *Host) tickLoop() {
	defer h.wg.Done()
	t := time.NewTicker(h.cfg.tickInterval())
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case now := <-t.C:
			h.mu.RLock()
			for _, hm := range h.members {
				if hm.tickQueued.CompareAndSwap(false, true) {
					h.enqueue(hm.sh, task{hm: hm, tick: true, now: now})
				}
			}
			h.mu.RUnlock()
		}
	}
}

// tickMember sweeps one member's live runs: Tick each session, transmit
// any restart traffic, re-arm the deadline after a restart, settle what
// finished.
func (h *Host) tickMember(hm *hostMember, now time.Time) {
	hm.tickQueued.Store(false)
	for _, r := range hm.liveRuns() {
		_ = r.sess.Tick(now)
		if pkts := r.sess.Outbox(); len(pkts) > 0 {
			h.transmit(hm.mb.ID(), pkts)
		}
		if a := r.sess.Attempts(); a != int(r.attempts.Load()) {
			r.attempts.Store(int32(a))
			if d := h.cfg.Deadline; d > 0 && !r.sess.Done() {
				r.sess.SetDeadline(now.Add(d))
			}
		}
		h.settleRun(r)
	}
}

// settleRun finalizes a run whose session reached a terminal state.
func (h *Host) settleRun(r *Run) {
	if !r.sess.Done() {
		return
	}
	r.hm.mu.Lock()
	dropped := r.hm.runs[r.sid] == r
	if dropped {
		delete(r.hm.runs, r.sid)
	}
	r.hm.mu.Unlock()
	if dropped {
		r.hm.sh.dropRun(r.sid)
	}
	r.finalize()
}

// transmit pushes packets out through the Transmit callback.
func (h *Host) transmit(from string, pkts []idgka.Packet) {
	if h.tx == nil {
		return
	}
	for _, p := range pkts {
		if err := h.tx(from, p); err != nil {
			h.sendErrors.Add(1)
			mSendErrors.Inc()
		}
	}
}

// Stats snapshots the host's counters.
func (h *Host) Stats() Stats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	st := Stats{
		Members:        len(h.members),
		Delivered:      h.delivered.Load(),
		SendErrors:     h.sendErrors.Load(),
		Sheds:          h.sheds.Load(),
		PeakQueueDepth: int(h.peakDepth.Value()),
	}
	for _, s := range h.shards {
		st.QueueDepth += s.depth()
	}
	for _, hm := range h.members {
		hm.mu.Lock()
		st.LiveRuns += len(hm.runs)
		hm.mu.Unlock()
	}
	return st
}

// Close stops the ticker and shard workers, then cancels every live run
// (their waiters unblock with the session's close error). Idempotent.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	members := make([]*hostMember, 0, len(h.members))
	for _, hm := range h.members {
		members = append(members, hm)
	}
	h.mu.Unlock()
	close(h.stop)
	for _, s := range h.shards {
		s.close()
	}
	h.wg.Wait()
	for _, hm := range members {
		hm.mu.Lock()
		runs := make([]*Run, 0, len(hm.runs))
		for _, r := range hm.runs {
			runs = append(runs, r)
		}
		hm.runs = map[string]*Run{}
		hm.mu.Unlock()
		for _, r := range runs {
			hm.sh.dropRun(r.sid)
			r.sess.Close()
			r.finalize()
		}
	}
}

// Run is the host's handle on one flow it drives to completion.
type Run struct {
	hm       *hostMember
	sess     *idgka.Session
	sid      string
	started  time.Time
	attempts atomic.Int32
	once     sync.Once
	done     chan struct{}
}

// finalize marks the run settled exactly once; a run settling with a
// committed key feeds the time-to-key histogram.
func (r *Run) finalize() {
	r.once.Do(func() {
		if !r.started.IsZero() && r.sess.Err() == nil {
			mTimeToKey.ObserveSince(r.started)
		}
		close(r.done)
	})
}

// Done is closed once the run reached a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Wait blocks until the run settles and returns its error (nil on a
// committed key).
func (r *Run) Wait() error {
	<-r.done //gkalint:unbounded blocking-by-contract public API; session deadlines and Tick bound settlement, after which finalize closes done
	return r.sess.Err()
}

// SID returns the run's session id.
func (r *Run) SID() string { return r.sid }

// Err returns the session's failure, if any.
func (r *Run) Err() error { return r.sess.Err() }

// Key returns the committed key material, or nil.
func (r *Run) Key() []byte { return r.sess.Key() }

// Roster returns the committed ring, or nil.
func (r *Run) Roster() []string { return r.sess.Roster() }

// Session exposes the underlying handle (e.g. to Close a committed
// group once it has been superseded).
func (r *Run) Session() *idgka.Session { return r.sess }

// Cancel abandons the run: the session is closed (aborting its in-flight
// flow, or releasing its committed group) and waiters unblock.
func (r *Run) Cancel() {
	r.sess.Close()
	r.hm.mu.Lock()
	dropped := r.hm.runs[r.sid] == r
	if dropped {
		delete(r.hm.runs, r.sid)
	}
	r.hm.mu.Unlock()
	if dropped {
		r.hm.sh.dropRun(r.sid)
	}
	r.finalize()
}

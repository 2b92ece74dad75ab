// Command gkanet runs the authenticated group key agreement over real TCP
// sockets: a relay hub plus one TCP connection per node, exercising the
// same protocol engine as the simulator.
//
// Two execution modes:
//
//   - event (default): every node runs as an independent event-driven
//     worker with its own engine.Machine, driven ONLY by its own inbox —
//     no global coordinator touches more than one member. This is the
//     deployment shape of internal/engine. With -dynamic (on by default)
//     the run continues past establishment: a fresh TCP node is admitted
//     by the Join protocol and a member is evicted by Leave, each re-key
//     explicitly confirmed, all still coordinator-free — every node
//     derives the next flow's parameters from its own committed session
//     state (the engine's per-session group registry).
//
//   - lockstep: the original driver (core.RunInitial) marches all members
//     through the rounds from one goroutine, as the paper's tables do.
//
// Fault scenarios (-crash) kill one node at a chosen phase and let the
// survivors recover without a coordinator: the hub's peer-down frame wakes
// them, they evict the dead node with the paper's Leave protocol and
// converge on (and confirm) a fresh key. Sends are bounded by
// -send-timeout, so a wedged transport fails fast instead of hanging.
//
// With -serve the process instead hosts MANY groups at once through the
// sharded internal/serve layer: every group is a rotated ring over the -n
// nodes, all groups establish and confirm concurrently over one hub, and
// the host's bounded worker pool (not a goroutine per node or session)
// drives every member. -crash composes: each hosted group independently
// evicts the victim and re-keys, cross-checked per group.
//
// A run can span several OS processes: one process starts the hub, the
// others dial it with -connect, and -own names the subset of nodes each
// process drives. A ready-barrier over the hub synchronises the processes
// before the first protocol round.
//
//	gkanet -n 5                     # hub + 5 nodes: establish, join, evict
//	gkanet -dynamic=false -n 5      # establishment + confirmation only
//	gkanet -mode lockstep -n 5      # the legacy lockstep orchestrator
//	gkanet -listen :7777            # choose the hub port
//	gkanet -n 5 -crash node-02@confirmed   # kill node-02, survivors re-key
//	gkanet -n 4 -serve -groups 16          # host 16 concurrent groups
//	gkanet -n 4 -serve -groups 8 -crash node-02@established
//	gkanet -n 4 -own node-01,node-02 &     # multi-process: hub + 2 nodes,
//	gkanet -n 4 -connect HOST:PORT -own node-03,node-04 -crash node-04@confirmed
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"log"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"idgka"
	"idgka/internal/core"
	"idgka/internal/energy"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/serve"
	"idgka/internal/sigs/gq"
	"idgka/internal/transport"
)

// Crash phases: the point in the run after which the victim's process
// dies. "established" kills it after the initial key commit but BEFORE the
// confirmation round (survivors wedge mid-confirm and must abort it on the
// peer-down event); "confirmed" kills it after confirmation completed.
const (
	phaseEstablished = "established"
	phaseConfirmed   = "confirmed"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gkanet: ")
	n := flag.Int("n", 5, "group size")
	listen := flag.String("listen", "127.0.0.1:0", "hub listen address")
	connect := flag.String("connect", "", "dial an existing hub at this address instead of starting one (multi-process runs)")
	own := flag.String("own", "", "comma-separated node ids this process drives (default: all; multi-process runs)")
	mode := flag.String("mode", "event", "execution mode: event (per-node state machines) or lockstep (driver)")
	dynamic := flag.Bool("dynamic", true, "event mode: admit one joiner and evict one member after establishment")
	crash := flag.String("crash", "", "event mode fault scenario: <id>@<phase> kills node id after phase (established|confirmed); survivors evict it via Leave and re-key")
	serveMode := flag.Bool("serve", false, "host -groups concurrent groups (rotated rings over the -n nodes) through the sharded internal/serve layer; composes with -crash")
	groups := flag.Int("groups", 8, "group count for -serve")
	sendTimeout := flag.Duration("send-timeout", 15*time.Second, "per-delivery deadline on every Broadcast/Send (0 = unbounded)")
	metricsAddr := flag.String("metrics-addr", "", "serve the process metrics registry as expvar-compatible JSON on this HTTP address (e.g. 127.0.0.1:9100)")
	flag.Parse()
	if *n < 2 {
		log.Fatal("-n must be >= 2")
	}
	if *mode != "event" && *mode != "lockstep" {
		log.Fatalf("unknown -mode %q", *mode)
	}
	victim, phase, err := parseCrash(*crash)
	if err != nil {
		log.Fatal(err)
	}
	if victim != "" && *mode != "event" {
		log.Fatal("-crash needs -mode event")
	}
	if *serveMode {
		if *mode != "event" {
			log.Fatal("-serve needs -mode event")
		}
		if *connect != "" || *own != "" {
			log.Fatal("-serve is single-process (no -connect/-own)")
		}
		if *groups < 1 {
			log.Fatal("-groups must be >= 1")
		}
		if victim != "" && *n < 3 {
			log.Fatal("-serve -crash needs -n >= 3 (survivor rings must keep >= 2 members)")
		}
	}

	if *metricsAddr != "" {
		addr, err := serveMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("metrics on http://%s/\n", addr)
	}

	var router *transport.Router
	if *connect != "" {
		router = transport.NewRouter(*connect)
		fmt.Printf("joining hub at %s\n", *connect)
	} else {
		hub, err := transport.NewHub(*listen)
		if err != nil {
			log.Fatalf("hub: %v", err)
		}
		defer hub.Close()
		fmt.Printf("hub listening on %s\n", hub.Addr())
		router = transport.NewRouter(hub.Addr())
	}
	defer router.Close()
	router.SetSendTimeout(*sendTimeout)

	set := params.Default()
	cfg := engine.Config{Set: set.Public()}
	total := *n
	if *mode == "event" && *dynamic && victim == "" && !*serveMode {
		total = *n + 1 // the node admitted by the Join demo
	}
	ids := make([]string, total)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i+1)
	}
	if victim != "" && !slices.Contains(ids, victim) {
		log.Fatalf("-crash victim %q is not one of %v", victim, ids)
	}
	ownIDs, err := parseOwn(*own, ids)
	if err != nil {
		log.Fatal(err)
	}
	p := &proc{router: router, cfg: cfg, ids: ownIDs}
	if len(ownIDs) < total || *connect != "" {
		// Multi-process run: synchronise on a ready-barrier before the
		// first protocol round, so no broadcast misses a late process.
		p.barrierTotal = total
	}
	p.keys = make([]*gq.PrivateKey, len(ownIDs))
	p.meters = make([]*meter.Meter, len(ownIDs))
	for i, id := range ownIDs {
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			log.Fatalf("extract: %v", err)
		}
		p.keys[i] = sk
		p.meters[i] = meter.New()
		if err := router.Attach(id, p.meters[i]); err != nil {
			log.Fatalf("attach: %v", err)
		}
		fmt.Printf("node %s connected over TCP\n", id)
	}
	roster := ids[:*n]

	var fingerprint [32]byte
	start := time.Now()
	switch {
	case *serveMode:
		fps, err := p.serveScenario(roster, *groups, victim, phase)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		elapsed := time.Since(start)
		for g, fp := range fps {
			fmt.Printf("group g%02d key fingerprint: %x\n", g, fp[:8])
		}
		if victim != "" {
			fmt.Printf("\ncrash: %s killed at phase %q; survivors evicted it per group and re-keyed\n", victim, phase)
		}
		fmt.Printf("serve: %d groups converged on confirmed keys over TCP in %v (%d nodes)\n",
			len(fps), elapsed.Round(time.Millisecond), *n)
		for i, id := range p.ids {
			r := p.meters[i].Report()
			fmt.Printf("  %-8s tx=%dB rx=%dB\n", id, r.BytesTx, r.BytesRx)
		}
		return
	case *mode == "lockstep":
		if p.barrierTotal > 0 {
			log.Fatal("-connect/-own need -mode event")
		}
		members := make([]*core.Member, *n)
		for i := range roster {
			mb, err := core.NewMember(cfg, p.keys[i], p.meters[i])
			if err != nil {
				log.Fatal(err)
			}
			members[i] = mb
		}
		if err := core.RunInitial(router, members); err != nil {
			log.Fatalf("GKA: %v", err)
		}
		if err := core.ConfirmKey(router, members); err != nil {
			log.Fatalf("confirmation: %v", err)
		}
		fingerprint = sha256.Sum256(members[0].Key().Bytes())
	case victim != "":
		fps, err := p.crashScenario(roster, victim, phase)
		if err != nil {
			log.Fatalf("GKA: %v", err)
		}
		if fingerprint, err = checkAgreement(p.ids, fps, victim); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncrash: %s killed at phase %q; survivors detected the death,\n", victim, phase)
		fmt.Printf("       evicted it via Leave and confirmed a fresh key\n")
	case *dynamic:
		joiner := ids[total-1]
		evictee := roster[1]
		fps, err := p.lifecycle(roster, joiner, evictee)
		if err != nil {
			log.Fatalf("GKA: %v", err)
		}
		if fingerprint, err = checkAgreement(p.ids, fps, evictee); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\njoin:  %s admitted over TCP, key rotated and confirmed\n", joiner)
		fmt.Printf("leave: %s evicted, survivors re-keyed and confirmed\n", evictee)
	default:
		fps, err := p.eventDriven(roster)
		if err != nil {
			log.Fatalf("GKA: %v", err)
		}
		if fingerprint, err = checkAgreement(p.ids, fps, ""); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("\ngroup key agreed and confirmed over TCP in %v (%s mode)\n",
		elapsed.Round(time.Millisecond), *mode)
	fmt.Printf("key fingerprint: %x\n", fingerprint[:8])

	model := energy.DefaultModel()
	for i, id := range p.ids {
		r := p.meters[i].Report()
		fmt.Printf("  %-8s tx=%dB rx=%dB -> %.2f mJ (modelled)\n",
			id, r.BytesTx, r.BytesRx, model.EnergyJ(r)*1000)
	}
}

// parseCrash splits an -crash value into victim id and phase.
func parseCrash(v string) (victim, phase string, err error) {
	if v == "" {
		return "", "", nil
	}
	at := strings.LastIndex(v, "@")
	if at <= 0 || at == len(v)-1 {
		return "", "", fmt.Errorf("-crash wants <id>@<phase>, got %q", v)
	}
	victim, phase = v[:at], v[at+1:]
	if phase != phaseEstablished && phase != phaseConfirmed {
		return "", "", fmt.Errorf("-crash phase %q not one of %s|%s", phase, phaseEstablished, phaseConfirmed)
	}
	return victim, phase, nil
}

// parseOwn resolves the -own subset against the deployment's ids.
func parseOwn(v string, ids []string) ([]string, error) {
	if v == "" {
		return ids, nil
	}
	var out []string
	for _, id := range strings.Split(v, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("-own id %q is not one of %v", id, ids)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, errors.New("-own named no nodes")
	}
	sort.Strings(out)
	return out, nil
}

// checkAgreement verifies every participating node (skip excluded, which
// left before the final re-key) confirmed the same key, returning it.
func checkAgreement(ids []string, fps [][32]byte, skip string) ([32]byte, error) {
	var ref [32]byte
	have := false
	for i, id := range ids {
		if id == skip {
			continue
		}
		if !have {
			ref, have = fps[i], true
			continue
		}
		if fps[i] != ref {
			return ref, fmt.Errorf("node %s confirmed a different key", id)
		}
	}
	return ref, nil
}

// proc is the slice of an event-driven deployment one OS process drives:
// the nodes it owns (with their keys and meters, parallel slices), the
// shared router, and — for multi-process runs — the total node count the
// ready-barrier waits for (0 = single process, no barrier).
type proc struct {
	router       *transport.Router
	cfg          engine.Config
	ids          []string
	keys         []*gq.PrivateKey
	meters       []*meter.Meter
	barrierTotal int
}

// worker owns one node's protocol machine and drives it exclusively from
// its own TCP inbox — the per-node half of an event-driven deployment.
type worker struct {
	id     string
	mach   *engine.Machine
	router *transport.Router
	// dead accumulates peers the transport reported down (EventPeerDown).
	dead map[string]bool
	// stash holds messages drained outside a flow (by the ready-barrier)
	// for replay when the next flow runs.
	stash []netsim.Message
}

// send routes outbound messages. A recipient dying mid-delivery is not
// fatal: the hub settles the send with a *PeerDownError once every
// SURVIVING recipient has the message, so the worker records the death
// (exactly like a peer-down frame) and carries on — the eviction logic
// deals with the dead node.
func (w *worker) send(outs []engine.Outbound) error {
	for _, o := range outs {
		var err error
		if o.To == "" {
			err = w.router.BroadcastState(w.id, o.Type, o.Payload, o.StateLen)
		} else {
			err = w.router.SendState(w.id, o.To, o.Type, o.Payload, o.StateLen)
		}
		var pd *transport.PeerDownError
		if errors.As(err, &pd) {
			w.dead[pd.Peer] = true
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

const typeReady = "gkanet/ready"

// barrier synchronises a multi-process run: every node broadcasts a ready
// beacon until it has seen one from every other node, then announces
// readiness once more (everyone is attached by then, so nobody can miss
// it) and proceeds. Non-beacon traffic drained along the way is stashed
// for the first flow. Beacons carry a nil payload on purpose: the energy
// model prices bytes, so the synchronisation traffic cannot perturb the
// printed per-node byte/energy accounting.
func (w *worker) barrier(total int, timeout time.Duration) error {
	seen := map[string]bool{w.id: true}
	deadline := time.Now().Add(timeout)
	for {
		msgs, err := w.router.Recv(w.id)
		if err != nil {
			return err
		}
		for _, m := range msgs {
			if m.Type == typeReady {
				seen[m.From] = true
			} else {
				w.stash = append(w.stash, m)
			}
		}
		if len(seen) >= total {
			return w.router.Broadcast(w.id, typeReady, nil)
		}
		if err := w.router.Broadcast(w.id, typeReady, nil); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: ready barrier timed out with %d/%d nodes", w.id, len(seen), total)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// peerDownAbort reports a flow abandoned because a participant died.
type peerDownAbort struct{ peer string }

func (e *peerDownAbort) Error() string {
	return fmt.Sprintf("flow aborted: peer %s is down", e.peer)
}

// flowRun tracks one drive of a flow: the completion predicate and
// whether it has been met.
type flowRun struct {
	w    *worker
	done func(engine.Event) bool
	met  bool
}

// consume folds a batch of lifecycle events into the run: peer deaths are
// recorded on the worker, failures are fatal (see drive's doc for why),
// and the completion predicate flips met.
func (fr *flowRun) consume(evts []engine.Event) error {
	for _, ev := range evts {
		switch {
		case ev.Kind == engine.EventPeerDown:
			fr.w.dead[ev.Peer] = true
		case ev.Kind == engine.EventFailed:
			return fmt.Errorf("%s: flow failed: %w", fr.w.id, ev.Err)
		case fr.done != nil && fr.done(ev):
			fr.met = true
		}
	}
	return nil
}

// handle steps a batch of delivered messages through the machine,
// transmitting reactions and consuming events.
func (fr *flowRun) handle(msgs []netsim.Message) error {
	for _, msg := range msgs {
		outs, evts := fr.w.mach.Step(msg)
		if err := fr.w.send(outs); err != nil {
			return err
		}
		if err := fr.consume(evts); err != nil {
			return err
		}
	}
	return nil
}

// deadOf returns a dead member of watch (excluding this node), or "".
func (w *worker) deadOf(watch []string) string {
	for _, id := range watch {
		if id != w.id && w.dead[id] {
			return id
		}
	}
	return ""
}

// runFlow starts one flow and pumps inbox deliveries until an event
// satisfies done. Every drained message is stepped (the machine buffers
// traffic of flows not started yet), so nothing a faster peer sent early
// is lost. watch is the flow's roster: if any OTHER watched member is (or
// becomes) dead, the flow is abandoned with a *peerDownAbort instead of
// waiting forever for messages the dead node will never send — the caller
// aborts the session and re-keys via Leave. Protocol failures stay fatal
// here: the paper's "all members retransmit" loop needs every member to
// agree on restarting an attempt, and over a reliable TCP hub there are
// no transient failures to retry (the idgka.Session Tick runtime
// implements that loop for applications that need it).
func (w *worker) runFlow(start func() ([]engine.Outbound, []engine.Event, error),
	done func(ev engine.Event) bool, watch []string) error {

	fr := &flowRun{w: w, done: done}
	outs, evts, err := start()
	if err != nil {
		return err
	}
	if err := w.send(outs); err != nil {
		return err
	}
	if err := fr.consume(evts); err != nil {
		return err
	}
	stash := w.stash
	w.stash = nil
	if err := fr.handle(stash); err != nil {
		return err
	}
	for !fr.met {
		if p := w.deadOf(watch); p != "" {
			return &peerDownAbort{peer: p}
		}
		msgs, err := w.router.RecvWait(w.id)
		if err != nil {
			return err
		}
		if err := fr.handle(msgs); err != nil {
			return err
		}
	}
	return nil
}

// awaitPeerDown pumps the inbox until the transport reports peer dead.
func (w *worker) awaitPeerDown(peer string) error {
	fr := &flowRun{w: w}
	for !w.dead[peer] {
		msgs, err := w.router.RecvWait(w.id)
		if err != nil {
			return err
		}
		if err := fr.handle(msgs); err != nil {
			return err
		}
	}
	return nil
}

// established matches the commit of one session id.
func established(sid string) func(engine.Event) bool {
	return func(ev engine.Event) bool {
		return ev.Kind == engine.EventEstablished && ev.SID == sid
	}
}

// confirmed matches the completion of one confirmation session.
func confirmed(sid string) func(engine.Event) bool {
	return func(ev engine.Event) bool {
		return ev.Kind == engine.EventConfirmed && ev.SID == sid
	}
}

// forEach runs one goroutine per owned node; the first failure tears the
// transport down so peers blocked in RecvWait wake with an error instead
// of hanging forever on messages a dead node will never send.
func (p *proc) forEach(run func(i int, w *worker) error) error {
	var failOnce sync.Once
	var rootErr error
	fail := func(err error) {
		failOnce.Do(func() {
			rootErr = err
			p.router.Close()
		})
	}
	var wg sync.WaitGroup
	for i, id := range p.ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			mach, err := engine.NewMachine(p.cfg, p.keys[i], p.meters[i])
			if err != nil {
				fail(fmt.Errorf("node %s: %w", id, err))
				return
			}
			w := &worker{id: id, mach: mach, router: p.router, dead: map[string]bool{}}
			if p.barrierTotal > 0 {
				if err := w.barrier(p.barrierTotal, time.Minute); err != nil {
					fail(fmt.Errorf("node %s: %w", id, err))
					return
				}
			}
			if err := run(i, w); err != nil {
				fail(fmt.Errorf("node %s: %w", id, err))
			}
		}(i, id)
	}
	wg.Wait()
	return rootErr
}

// eventDriven establishes and confirms one group, every node driven
// exclusively by its own inbox.
func (p *proc) eventDriven(roster []string) ([][32]byte, error) {
	const sidEstablish = "gkanet/establish"
	const sidConfirm = "gkanet/confirm"

	fps := make([][32]byte, len(p.ids))
	err := p.forEach(func(i int, w *worker) error {
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartInitial(sidEstablish, roster)
		}, established(sidEstablish), roster); err != nil {
			return err
		}
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartConfirm(sidConfirm, sidEstablish)
		}, confirmed(sidConfirm), roster); err != nil {
			return err
		}
		fps[i] = sha256.Sum256(w.mach.Session(sidEstablish).Key.Bytes())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fps, nil
}

// lifecycle runs the full dynamic-membership demo with no coordinator:
// the founders establish and confirm; joiner is admitted by the
// three-round Join and the grown group confirms; then evictee is removed
// by Leave and the survivors confirm again. Each node starts every flow
// from its OWN machine's committed state — the Leave parameters
// (contracted ring, refresh set) are derived per node from the session
// registry, identically everywhere, which is exactly what the per-session
// base selection exists for.
func (p *proc) lifecycle(roster []string, joiner, evictee string) ([][32]byte, error) {
	const (
		sidEstablish = "gkanet/establish"
		sidConfirm1  = "gkanet/confirm-1"
		sidJoin      = "gkanet/join"
		sidConfirm2  = "gkanet/confirm-2"
		sidLeave     = "gkanet/leave"
		sidConfirm3  = "gkanet/confirm-3"
	)

	joined := append(append([]string(nil), roster...), joiner)
	fps := make([][32]byte, len(p.ids))
	err := p.forEach(func(i int, w *worker) error {
		founder := w.id != joiner
		if founder {
			if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
				return w.mach.StartInitial(sidEstablish, roster)
			}, established(sidEstablish), roster); err != nil {
				return err
			}
			if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
				return w.mach.StartConfirm(sidConfirm1, sidEstablish)
			}, confirmed(sidConfirm1), roster); err != nil {
				return err
			}
		}

		// Join: founders extend the group committed under sidEstablish;
		// the joiner itself has no base session.
		base := sidEstablish
		if !founder {
			base = ""
		}
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartJoin(sidJoin, base, roster, joiner)
		}, established(sidJoin), joined); err != nil {
			return err
		}
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartConfirm(sidConfirm2, sidJoin)
		}, confirmed(sidConfirm2), joined); err != nil {
			return err
		}
		if w.id == evictee {
			// The evicted node's last key is the joined group's.
			fps[i] = sha256.Sum256(w.mach.Session(sidJoin).Key.Bytes())
			return nil
		}

		// Leave: every survivor derives the contracted ring and refresh
		// set from its own committed session — no coordinator.
		newRoster, refresh, err := engine.PlanLeave(w.mach.Session(sidJoin), []string{evictee})
		if err != nil {
			return err
		}
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartPartition(sidLeave, sidJoin, newRoster, refresh)
		}, established(sidLeave), newRoster); err != nil {
			return err
		}
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartConfirm(sidConfirm3, sidLeave)
		}, confirmed(sidConfirm3), newRoster); err != nil {
			return err
		}
		fps[i] = sha256.Sum256(w.mach.Session(sidLeave).Key.Bytes())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fps, nil
}

// serveScenario is the multi-group deployment: all -n nodes live in ONE
// process behind one serve.Host, every group is a rotated ring over the
// full node set (so controllers differ), and all groups establish and
// confirm concurrently over the shared TCP hub — the host's shard workers
// replace the goroutine-per-node drivers of the other scenarios. With a
// victim, the crash composes per group: the victim's connection dies, the
// hub's peer-down frames reach every hosted member, wedged confirmation
// runs are cancelled, and each group independently evicts the victim via
// Leave and confirms a fresh key. Returns the final per-group
// fingerprints (cross-checked across members).
func (p *proc) serveScenario(roster []string, groups int, victim, phase string) ([][32]byte, error) {
	auth, err := idgka.NewAuthority()
	if err != nil {
		return nil, err
	}
	host := serve.NewHost(serve.Config{Deadline: 30 * time.Second}, func(from string, pkt idgka.Packet) error {
		var err error
		if pkt.To == "" {
			err = p.router.BroadcastState(from, pkt.Type, pkt.Payload, pkt.StateLen)
		} else {
			err = p.router.SendState(from, pkt.To, pkt.Type, pkt.Payload, pkt.StateLen)
		}
		var pd *transport.PeerDownError
		if errors.As(err, &pd) {
			// The message reached every SURVIVING recipient; the dead
			// peer is handled by the eviction flows.
			return nil
		}
		return err
	})
	defer host.Close()

	members := map[string]*idgka.Member{}
	for _, id := range roster {
		mb, err := auth.NewMember(id)
		if err != nil {
			return nil, err
		}
		if err := host.AddMember(mb); err != nil {
			return nil, err
		}
		members[id] = mb
	}
	// Pumps: one per node, draining the router inbox into the host. They
	// exit when the router (or the node's attachment) goes down — the
	// caller's deferred router.Close, not this function, reaps them;
	// delivering into a closed host is a no-op.
	for _, id := range roster {
		//gkalint:bounded pump returns when RecvWait errors: the deferred router.Close wakes and reaps it
		go func(id string) {
			for {
				msgs, err := p.router.RecvWait(id)
				if err != nil {
					return
				}
				for _, m := range msgs {
					_ = host.Deliver(id, idgka.Packet{From: m.From, To: m.To, Type: m.Type, Payload: m.Payload})
				}
			}
		}(id)
	}

	rings := make([][]string, groups)
	for g := range rings {
		k := g % len(roster)
		rings[g] = append(append([]string(nil), roster[k:]...), roster[:k]...)
	}
	sidEst := func(g int) string { return fmt.Sprintf("serve/g%02d/est", g) }

	// Establish every group concurrently.
	est := make([][]*serve.Run, groups)
	for g, ring := range rings {
		for _, id := range ring {
			sid, ring := sidEst(g), ring
			r, err := host.Start(id, sid, func(mb *idgka.Member) (*idgka.Session, error) {
				return mb.NewSession(sid, ring)
			})
			if err != nil {
				return nil, err
			}
			est[g] = append(est[g], r)
		}
	}
	keys, err := serve.SettleGroups("establish", est, 2*time.Minute)
	if err != nil {
		return nil, err
	}
	fps := make([][32]byte, groups)
	for g := range keys {
		fps[g] = sha256.Sum256(keys[g])
	}

	confirmAll := func(tag string, ringOf func(g int) []string, baseOf func(g int) string) ([][]*serve.Run, error) {
		runs := make([][]*serve.Run, groups)
		for g := 0; g < groups; g++ {
			for _, id := range ringOf(g) {
				sid, base := fmt.Sprintf("serve/g%02d/%s", g, tag), baseOf(g)
				r, err := host.Start(id, sid, func(mb *idgka.Member) (*idgka.Session, error) {
					return mb.ConfirmSession(sid, base)
				})
				if err != nil {
					return nil, err
				}
				runs[g] = append(runs[g], r)
			}
		}
		return runs, nil
	}

	if victim == "" || phase == phaseConfirmed {
		cfm, err := confirmAll("cfm", func(g int) []string { return rings[g] }, sidEst)
		if err != nil {
			return nil, err
		}
		if _, err := serve.SettleGroups("confirm", cfm, 2*time.Minute); err != nil {
			return nil, err
		}
	}
	if victim == "" {
		return fps, nil
	}

	// Crash: the victim's connection dies. At phase "established" the
	// survivors' confirmation runs are already in flight and genuinely
	// wedge — the peer-down notice is what unblocks them (via Cancel).
	survivorsOf := func(g int) []string {
		out := make([]string, 0, len(rings[g])-1)
		for _, id := range rings[g] {
			if id != victim {
				out = append(out, id)
			}
		}
		return out
	}
	var wedged [][]*serve.Run
	if phase == phaseEstablished {
		w, err := confirmAll("cfm", survivorsOf, sidEst)
		if err != nil {
			return nil, err
		}
		wedged = w
	}
	p.router.Detach(victim)

	// Every surviving member learns of the death through the hub's
	// peer-down frames.
	waitDead := time.Now().Add(30 * time.Second)
	for _, id := range roster {
		if id == victim {
			continue
		}
		for !slices.Contains(members[id].DeadPeers(), victim) {
			if time.Now().After(waitDead) {
				return nil, fmt.Errorf("%s never observed the death of %s", id, victim)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, runs := range wedged {
		for _, r := range runs {
			r.Cancel()
		}
	}

	// Per group: evict the victim via Leave and confirm the fresh key.
	evict := make([][]*serve.Run, groups)
	for g := 0; g < groups; g++ {
		for _, id := range survivorsOf(g) {
			sid, base := fmt.Sprintf("serve/g%02d/evict", g), sidEst(g)
			r, err := host.Start(id, sid, func(mb *idgka.Member) (*idgka.Session, error) {
				return mb.LeaveSession(sid, base, []string{victim})
			})
			if err != nil {
				return nil, err
			}
			evict[g] = append(evict[g], r)
		}
	}
	if _, err := serve.SettleGroups("evict", evict, 2*time.Minute); err != nil {
		return nil, err
	}
	cfm2, err := confirmAll("cfm-evict",
		survivorsOf, func(g int) string { return fmt.Sprintf("serve/g%02d/evict", g) })
	if err != nil {
		return nil, err
	}
	fresh, err := serve.SettleGroups("confirm-evict", cfm2, 2*time.Minute)
	if err != nil {
		return nil, err
	}
	for g := range fresh {
		fp := sha256.Sum256(fresh[g])
		if fp == fps[g] {
			return nil, fmt.Errorf("g%02d: eviction did not rotate the key", g)
		}
		fps[g] = fp
	}
	return fps, nil
}

// crashScenario is the fault-tolerance acceptance run: the group
// establishes (and, at phase "confirmed", confirms); then victim's
// connection dies without warning. The hub settles everything blocked on
// the dead node and deals every survivor a peer-down frame; the survivors
// abort whatever the death wedged, evict the victim with the paper's
// Leave protocol — parameters derived from each node's own committed
// session, no coordinator — and confirm the fresh key. The victim's slot
// in fps keeps its last key so callers can assert it differs.
func (p *proc) crashScenario(roster []string, victim, phase string) ([][32]byte, error) {
	const (
		sidEstablish = "gkanet/establish"
		sidConfirm1  = "gkanet/confirm-1"
		sidEvict     = "gkanet/evict"
		sidConfirm2  = "gkanet/confirm-evict"
	)

	fps := make([][32]byte, len(p.ids))
	err := p.forEach(func(i int, w *worker) error {
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartInitial(sidEstablish, roster)
		}, established(sidEstablish), roster); err != nil {
			return err
		}
		if w.id == victim && phase == phaseEstablished {
			fps[i] = sha256.Sum256(w.mach.Session(sidEstablish).Key.Bytes())
			p.router.Detach(w.id)
			return nil
		}

		// Confirmation: at phase "established" the victim is already dead
		// and its digest will never come — the peer-down event aborts the
		// wedged flow and the survivors fall through to the eviction.
		err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartConfirm(sidConfirm1, sidEstablish)
		}, confirmed(sidConfirm1), roster)
		var downAbort *peerDownAbort
		if errors.As(err, &downAbort) {
			w.mach.Abort(sidConfirm1)
		} else if err != nil {
			return err
		}
		if w.id == victim { // phase == phaseConfirmed
			fps[i] = sha256.Sum256(w.mach.Session(sidEstablish).Key.Bytes())
			p.router.Detach(w.id)
			return nil
		}

		// Survivors: wait for the transport's death notice, then re-key.
		if err := w.awaitPeerDown(victim); err != nil {
			return err
		}
		newRoster, refresh, err := engine.PlanLeave(w.mach.Session(sidEstablish), []string{victim})
		if err != nil {
			return err
		}
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartPartition(sidEvict, sidEstablish, newRoster, refresh)
		}, established(sidEvict), newRoster); err != nil {
			return err
		}
		if err := w.runFlow(func() ([]engine.Outbound, []engine.Event, error) {
			return w.mach.StartConfirm(sidConfirm2, sidEvict)
		}, confirmed(sidConfirm2), newRoster); err != nil {
			return err
		}
		fps[i] = sha256.Sum256(w.mach.Session(sidEvict).Key.Bytes())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fps, nil
}

// Command gkanet runs the authenticated group key agreement over real TCP
// sockets: a relay hub plus one TCP connection per node, exercising the
// same protocol engine as the simulator.
//
// Two execution modes:
//
//   - event (default): the process's nodes are idgka.Members on one
//     internal/serve Host, which drives every member's sessions from its
//     own TCP inbox — no coordinator touches more than one member. This
//     is the deployment shape of the Session API. -groups G keys G
//     concurrent groups, each a rotated ring over the -n nodes. With
//     -dynamic (on by default) the run continues past establishment: a
//     fresh TCP node is admitted by the Join protocol and a member is
//     evicted by Leave, each re-key explicitly confirmed, all still
//     coordinator-free — every member derives the next flow's parameters
//     from its own committed session state.
//
//   - lockstep: the core.RunInitial driver marches all members through
//     the rounds from one goroutine, as the paper's tables do, and puts
//     the paper's bare radio messages on the wire: it strips the session
//     envelope off every engine outbound and restores it on delivery.
//
// Fault scenarios (-crash) kill one node at a chosen phase and let the
// survivors recover without a coordinator: the hub's peer-down frames
// reach every surviving member, which cancels whatever the death wedged,
// evicts the dead node from every group with the paper's Leave protocol
// and converges on (and confirms) a fresh key. Sends are bounded by
// -send-timeout, so a wedged transport fails fast instead of hanging.
//
// A run can span several OS processes: one process starts the hub, the
// others dial it with -connect, and -own names the subset of nodes each
// process hosts. Every process passes the same scenario flags. A
// ready-barrier over the hub synchronises the processes before the first
// protocol round.
//
//	gkanet -n 5                     # hub + 5 nodes: establish, join, evict
//	gkanet -dynamic=false -n 5      # establishment + confirmation only
//	gkanet -mode lockstep -n 5      # the lockstep driver, paper's wire bytes
//	gkanet -listen :7777            # choose the hub port
//	gkanet -n 5 -crash node-02@confirmed   # kill node-02, survivors re-key
//	gkanet -n 4 -groups 16                 # 16 concurrent groups
//	gkanet -n 4 -groups 8 -crash node-02@established
//	gkanet -n 4 -own node-01,node-02 -crash node-04@confirmed &   # multi-process:
//	gkanet -n 4 -connect HOST:PORT -own node-03,node-04 -crash node-04@confirmed
package main

import (
	"bytes"
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
	var c config
	flag.IntVar(&c.n, "n", 5, "group size")
	listen := flag.String("listen", "127.0.0.1:0", "hub listen address")
	flag.StringVar(&c.connect, "connect", "", "dial an existing hub at this address instead of starting one (multi-process runs)")
	flag.StringVar(&c.own, "own", "", "comma-separated node ids this process hosts (default: all; multi-process runs)")
	flag.StringVar(&c.mode, "mode", "event", "execution mode: event (members hosted by internal/serve) or lockstep (driver)")
	flag.BoolVar(&c.dynamic, "dynamic", true, "event mode: admit one joiner and evict one member after establishment")
	flag.StringVar(&c.crash, "crash", "", "event mode fault scenario: <id>@<phase> kills node id after phase (established|confirmed); survivors evict it via Leave and re-key")
	flag.IntVar(&c.groups, "groups", 1, "event mode: key this many concurrent groups, each a rotated ring over the -n nodes")
	sendTimeout := flag.Duration("send-timeout", 15*time.Second, "per-delivery deadline on every Broadcast/Send (0 = unbounded)")
	metricsAddr := flag.String("metrics-addr", "", "serve the process metrics registry as expvar-compatible JSON on this HTTP address (e.g. 127.0.0.1:9100)")
	flag.Parse()
	ids, own, sc, err := c.plan()
	if err != nil {
		log.Fatal(err)
	}

	if *metricsAddr != "" {
		addr, err := serveMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("metrics on http://%s/\n", addr)
	}

	var router *transport.Router
	if c.connect != "" {
		router = transport.NewRouter(c.connect)
		fmt.Printf("joining hub at %s\n", c.connect)
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

	barrierTotal := 0
	if len(own) < len(ids) || c.connect != "" {
		// Multi-process run: synchronise on a ready-barrier before the
		// first protocol round, so no broadcast misses a late process.
		barrierTotal = len(ids)
	}
	p, err := attach(router, own, barrierTotal)
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range p.ids {
		fmt.Printf("node %s connected over TCP\n", id)
	}

	var keys [][]byte
	var reports []meter.Report
	start := time.Now()
	if c.mode == "lockstep" {
		set := params.Default()
		cfg := engine.Config{Set: set.Public()}
		members := make([]*core.Member, c.n)
		for i, id := range ids {
			sk, err := gq.Extract(set.RSA, id)
			if err != nil {
				log.Fatalf("extract: %v", err)
			}
			mb, err := core.NewMember(cfg, sk, p.meters[i])
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
		keys = [][]byte{members[0].Key().Bytes()}
		for _, m := range p.meters {
			reports = append(reports, m.Report())
		}
	} else {
		out, err := p.run(sc, c.groups)
		if err != nil {
			log.Fatalf("GKA: %v", err)
		}
		keys, reports = out.keys, out.reports
	}
	elapsed := time.Since(start)

	// Hash first: only fingerprints, never key bytes, reach the output.
	fps := make([][]byte, len(keys))
	for g, k := range keys {
		if k != nil {
			fp := sha256.Sum256(k)
			fps[g] = fp[:8]
		}
	}
	fmt.Println()
	for g, fp := range fps {
		if fp == nil {
			fmt.Printf("group g%02d: no node of this process holds the final key\n", g)
			continue
		}
		fmt.Printf("group g%02d key fingerprint: %x\n", g, fp)
	}
	switch {
	case sc.phase != "":
		fmt.Printf("\ncrash: %s killed at phase %q; survivors detected the death,\n", sc.out, sc.phase)
		fmt.Printf("       evicted it via Leave and confirmed a fresh key\n")
	case sc.joiner != "":
		fmt.Printf("\njoin:  %s admitted over TCP, key rotated and confirmed\n", sc.joiner)
		fmt.Printf("leave: %s evicted, survivors re-keyed and confirmed\n", sc.out)
	}
	fmt.Printf("\n%d group key(s) agreed and confirmed over TCP in %v (%s mode)\n",
		len(keys), elapsed.Round(time.Millisecond), c.mode)

	model := energy.DefaultModel()
	for i, id := range p.ids {
		r := reports[i]
		fmt.Printf("  %-8s tx=%dB rx=%dB -> %.2f mJ (modelled)\n",
			id, r.BytesTx, r.BytesRx, model.EnergyJ(r)*1000)
	}
}

// config holds the flags that choose a run.
type config struct {
	n, groups                 int
	mode, crash, own, connect string
	dynamic                   bool
}

// plan validates every flag, before any node attaches, and resolves them
// into the deployment's node ids, the ones this process hosts and the
// event-mode scenario.
func (c config) plan() (ids, own []string, sc scenario, err error) {
	victim, phase, err := parseCrash(c.crash)
	switch {
	case err != nil:
	case c.n < 2:
		err = errors.New("-n must be >= 2")
	case c.groups < 1:
		err = errors.New("-groups must be >= 1")
	case c.mode != "event" && c.mode != "lockstep":
		err = fmt.Errorf("unknown -mode %q", c.mode)
	case c.mode == "lockstep" && (victim != "" || c.own != "" || c.connect != "" || c.groups > 1):
		err = errors.New("-crash, -own, -connect and -groups > 1 need -mode event")
	case victim != "" && c.n < 3:
		err = errors.New("-crash needs -n >= 3 (the survivors must keep >= 2 members)")
	}
	if err != nil {
		return nil, nil, sc, err
	}
	total := c.n
	if c.mode == "event" && c.dynamic && victim == "" {
		total++ // the node the lifecycle admits
	}
	ids = make([]string, total)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i+1)
	}
	if victim != "" && !slices.Contains(ids, victim) {
		return nil, nil, sc, fmt.Errorf("-crash victim %q is not one of %v", victim, ids)
	}
	if own, err = parseOwn(c.own, ids); err != nil {
		return nil, nil, sc, err
	}

	// The scenario table: one row per event-mode run the flags select.
	switch {
	case victim != "": // the victim dies after phase; the survivors evict it
		sc = scenario{roster: ids, flows: []flow{establish, leave}, out: victim, phase: phase}
	case total > c.n: // the extra node joins, then the second founder is evicted
		sc = scenario{roster: ids[:c.n], flows: []flow{establish, join, leave}, joiner: ids[c.n], out: ids[1]}
	default:
		sc = scenario{roster: ids, flows: []flow{establish}}
	}
	return ids, own, sc, nil
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

// flow is one protocol flow of a scenario; each is followed by a
// ConfirmSession round over the group it commits.
type flow string

const (
	establish flow = "establish" // NewSession over the founding ring
	join      flow = "join"      // JoinSession admitting scenario.joiner
	leave     flow = "leave"     // LeaveSession evicting scenario.out
)

// scenario is one row of the event-mode table: a topology, the flows run
// over it, and the fault, if any. Every row asserts the same outcome:
// each group agrees on one confirmed key, which out (when a leave flow
// evicts it) does not hold.
type scenario struct {
	// roster is the founding ring; group g runs it rotated by g, so the
	// groups' controllers differ.
	roster []string
	flows  []flow
	joiner string // the node join admits
	out    string // the node leave evicts: the evictee or the crash victim
	// phase, when set, crashes out after that phase of the flow before
	// the leave.
	phase string
}

// outcome is what one process observed of a scenario.
type outcome struct {
	// keys holds each group's final confirmed key, and evicted the key
	// each group agreed on before its leave flow, which the evicted node
	// still holds. A key is nil where this process hosts no member of
	// that flow.
	keys, evicted [][]byte
	// reports holds, per hosted node, the crypto operations its member
	// counted plus the bytes its TCP attachment moved.
	reports []meter.Report
}

// proc is the share of a deployment one OS process hosts: its nodes, each
// attached to the hub through the shared router with a meter of the
// bytes it moves, and — in a multi-process run — the deployment's node
// count the ready-barrier waits for (0 = single process, no barrier).
type proc struct {
	router       *transport.Router
	ids          []string
	meters       []*meter.Meter
	barrierTotal int
}

// attach connects the hosted nodes to the hub through router.
func attach(router *transport.Router, ids []string, barrierTotal int) (*proc, error) {
	p := &proc{router: router, ids: ids, barrierTotal: barrierTotal}
	for _, id := range ids {
		m := meter.New()
		if err := router.Attach(id, m); err != nil {
			return nil, fmt.Errorf("attach %s: %w", id, err)
		}
		p.meters = append(p.meters, m)
	}
	return p, nil
}

// transmit is the host's Transmit over the router. A recipient dying
// mid-delivery is not a failure: the hub settles the send with a
// *PeerDownError once every SURVIVING recipient has the message, and the
// eviction flows deal with the dead peer.
func (p *proc) transmit(from string, pkt idgka.Packet) error {
	var err error
	if pkt.To == "" {
		err = p.router.BroadcastState(from, pkt.Type, pkt.Payload, pkt.StateLen)
	} else {
		err = p.router.SendState(from, pkt.To, pkt.Type, pkt.Payload, pkt.StateLen)
	}
	var pd *transport.PeerDownError
	if errors.As(err, &pd) {
		return nil
	}
	return err
}

const typeReady = "gkanet/ready"

// barrier synchronises node id with the rest of a multi-process run: it
// broadcasts a ready beacon until it has seen one from every other node,
// then announces readiness once more (everyone is attached by then, so
// nobody can miss it). It returns the non-beacon traffic drained along
// the way. Beacons carry a nil payload on purpose: the energy model
// prices bytes, so the synchronisation traffic cannot perturb the printed
// per-node byte/energy accounting.
func (p *proc) barrier(id string, timeout time.Duration) ([]netsim.Message, error) {
	var drained []netsim.Message
	seen := map[string]bool{id: true}
	deadline := time.Now().Add(timeout)
	for {
		msgs, err := p.router.Recv(id)
		if err != nil {
			return nil, err
		}
		for _, m := range msgs {
			if m.Type == typeReady {
				seen[m.From] = true
			} else {
				drained = append(drained, m)
			}
		}
		if len(seen) >= p.barrierTotal {
			return drained, p.router.Broadcast(id, typeReady, nil)
		}
		if err := p.router.Broadcast(id, typeReady, nil); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s: ready barrier timed out with %d/%d nodes", id, len(seen), p.barrierTotal)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// connect feeds the hosted nodes' inboxes into host. In a multi-process
// run every node first passes the ready-barrier, all concurrently and
// before the host's first Start, and the traffic the barrier drained is
// handed to the host, whose engines buffer it for flows not started yet.
// Then one pump per node drains RecvWait into the host. A pump exits when
// its node's attachment closes: router.Close, not this function, reaps
// it, and delivering into a closed host is a no-op.
func (p *proc) connect(host *serve.Host) error {
	drained := make([][]netsim.Message, len(p.ids))
	if p.barrierTotal > 0 {
		errs := make([]error, len(p.ids))
		var wg sync.WaitGroup
		for i, id := range p.ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drained[i], errs[i] = p.barrier(id, time.Minute)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	for i, id := range p.ids {
		deliver := func(msgs []netsim.Message) {
			for _, m := range msgs {
				// The member is hosted, so Deliver cannot fail.
				_ = host.Deliver(id, idgka.Packet{From: m.From, To: m.To, Type: m.Type, Payload: m.Payload})
			}
		}
		deliver(drained[i])
		//gkalint:bounded pump returns when RecvWait errors: Detach or the deferred router.Close wakes and reaps it
		go func() {
			for {
				msgs, err := p.router.RecvWait(id)
				if err != nil {
					return
				}
				deliver(msgs)
			}
		}()
	}
	return nil
}

// run executes sc over groups concurrent groups on one serve.Host that
// hosts this process's nodes. Each flow starts on every hosted member of
// every group, then waits for this process's runs only: members in other
// processes progress on their own, and traffic for a flow a member has
// not started yet waits in its engine's early buffer. In a crash, a
// victim hosted here is detached once its phase settles locally; every
// hosted survivor learns of the death from the hub's peer-down frames,
// and the confirmation runs the death wedged are cancelled before the
// leave flow evicts it.
func (p *proc) run(sc scenario, groups int) (outcome, error) {
	var out outcome
	auth, err := idgka.NewAuthority()
	if err != nil {
		return out, err
	}
	host := serve.NewHost(serve.Config{Deadline: 30 * time.Second}, p.transmit)
	defer host.Close()
	for _, id := range p.ids {
		mb, err := auth.NewMember(id)
		if err != nil {
			return out, err
		}
		if err := host.AddMember(mb); err != nil {
			return out, err
		}
	}
	if err := p.connect(host); err != nil {
		return out, err
	}

	rings := make([][]string, groups)
	for g := range rings {
		k := g % len(sc.roster)
		rings[g] = append(slices.Clone(sc.roster[k:]), sc.roster[:k]...)
	}
	base := make([]string, groups) // each group's last committed flow
	for i, f := range sc.flows {
		prev, next := rings, make([][]string, groups)
		for g, ring := range prev {
			switch f {
			case join:
				next[g] = append(slices.Clone(ring), sc.joiner)
			case leave:
				next[g] = without(ring, sc.out)
			default:
				next[g] = ring
			}
		}
		sid := func(g int) string { return fmt.Sprintf("gkanet/g%02d/%s", g, f) }
		runs, err := p.startAll(host, next, sid, func(mb *idgka.Member, g int, sid string) (*idgka.Session, error) {
			switch f {
			case join:
				b := base[g]
				if mb.ID() == sc.joiner {
					b = "" // the joiner holds no base session
				}
				return mb.JoinSession(sid, b, prev[g], sc.joiner)
			case leave:
				return mb.LeaveSession(sid, base[g], []string{sc.out})
			}
			return mb.NewSession(sid, prev[g])
		})
		if err != nil {
			return out, err
		}
		keys, err := settle(string(f), runs)
		if err != nil {
			return out, err
		}
		if f == leave {
			for g := range keys {
				if keys[g] != nil && bytes.Equal(keys[g], out.keys[g]) {
					return out, fmt.Errorf("g%02d: %s still holds the group key", g, sc.out)
				}
			}
			out.evicted = out.keys
		}
		out.keys, rings = keys, next
		for g := range base {
			base[g] = sid(g)
		}

		// Confirm, unless out dies first: then only the survivors start
		// confirming, and their runs wedge until the death is known.
		crash := sc.phase != "" && i+1 < len(sc.flows) && sc.flows[i+1] == leave
		wedge := crash && sc.phase == phaseEstablished
		confirmers := rings
		if wedge {
			confirmers = make([][]string, groups)
			for g, ring := range rings {
				confirmers[g] = without(ring, sc.out)
			}
		}
		cfm, err := p.startAll(host, confirmers, func(g int) string { return sid(g) + "/confirm" },
			func(mb *idgka.Member, g int, sid string) (*idgka.Session, error) {
				return mb.ConfirmSession(sid, base[g])
			})
		if err != nil {
			return out, err
		}
		var wedged [][]*serve.Run
		if wedge {
			wedged = cfm
		} else if out.keys, err = settle(string(f)+" confirm", cfm); err != nil {
			return out, err
		}
		if crash {
			if err := p.kill(host, sc.out, wedged); err != nil {
				return out, err
			}
		}
	}
	for i, id := range p.ids {
		out.reports = append(out.reports, host.Member(id).Report().Add(p.meters[i].Report()))
	}
	return out, nil
}

// without returns a copy of ring minus id.
func without(ring []string, id string) []string {
	return slices.DeleteFunc(slices.Clone(ring), func(m string) bool { return m == id })
}

// startAll starts one flow on every hosted member of every group's ring,
// building each session with open, and returns the runs per group.
func (p *proc) startAll(host *serve.Host, rings [][]string, sid func(g int) string,
	open func(mb *idgka.Member, g int, sid string) (*idgka.Session, error)) ([][]*serve.Run, error) {

	runs := make([][]*serve.Run, len(rings))
	for g, ring := range rings {
		for _, id := range ring {
			if !slices.Contains(p.ids, id) {
				continue
			}
			r, err := host.Start(id, sid(g), func(mb *idgka.Member) (*idgka.Session, error) {
				return open(mb, g, sid(g))
			})
			if err != nil {
				return nil, err
			}
			runs[g] = append(runs[g], r)
		}
	}
	return runs, nil
}

// settle waits for this process's runs of one flow and returns each
// group's agreed key. Every group's ring has the same members, so the
// process hosts runs in every group or in none; with none, every key is
// nil.
func settle(what string, runs [][]*serve.Run) ([][]byte, error) {
	if len(runs[0]) == 0 {
		return make([][]byte, len(runs)), nil
	}
	return serve.SettleGroups(what, runs, 2*time.Minute)
}

// kill crashes victim: its connection dies if this process hosts it, every
// other hosted node waits for the hub's peer-down frame, and the runs the
// death wedged are cancelled.
func (p *proc) kill(host *serve.Host, victim string, wedged [][]*serve.Run) error {
	if slices.Contains(p.ids, victim) {
		p.router.Detach(victim)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range p.ids {
		if id == victim {
			continue
		}
		for !slices.Contains(host.Member(id).DeadPeers(), victim) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never observed the death of %s", id, victim)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, runs := range wedged {
		for _, r := range runs {
			r.Cancel()
		}
	}
	return nil
}

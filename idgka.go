// Package idgka is an implementation of the energy-efficient ID-based
// authenticated group key agreement protocols of Tan & Teo (IPDPS 2006)
// for wireless networks, together with every substrate the paper's
// evaluation depends on: the GQ identity-based signature scheme with batch
// verification, the Burmester-Desmedt ring protocol, certificate-based
// (DSA/ECDSA) and pairing-based (SOK) baselines, a broadcast network
// simulator with operation metering, and the StrongARM/radio energy model
// of the paper's Section 6.
//
// Quick start:
//
//	auth, _ := idgka.NewAuthority()            // the PKG (Setup)
//	net := idgka.NewNetwork()                  // shared broadcast medium
//	alice, _ := auth.NewMember("alice")        // Extract + member state
//	bob, _ := auth.NewMember("bob")
//	carol, _ := auth.NewMember("carol")
//	members := []*idgka.Member{alice, bob, carol}
//	for _, m := range members {
//	    net.Attach(m)
//	}
//	_ = idgka.Establish(net, members)          // 2-round authenticated GKA
//	key := alice.GroupKey()                    // == bob.GroupKey() ...
//
// Dynamic membership (the paper's Section 7):
//
//	idgka.Join(net, members, dave)
//	idgka.Leave(net, group, "bob")
//	idgka.Partition(net, group, []string{"carol", "erin"})
//	idgka.Merge(net, groupA, groupB)
//
// Every member carries an operation meter; price it with the paper's
// energy model:
//
//	model := idgka.DefaultEnergyModel()
//	joules := model.EnergyJ(alice.Report())
//
// The helpers above run the protocols lockstep over a shared Network.
// For real deployments each member can instead be driven event-by-event
// through a Session handle — the application owns the routing, members
// react only to their own inboxes, and out-of-order or concurrent
// sessions are tolerated (see Member.NewSession and internal/engine):
//
//	sess, _ := alice.NewSession("room-7", roster)
//	for !sess.Done() {
//	    for _, p := range sess.Outbox() {
//	        transportSend(p)
//	    }
//	    if err := sess.HandleMessage(transportRecv()); err != nil {
//	        return err // protocol failure; Done() is now true
//	    }
//	}
//	for _, p := range sess.Outbox() {
//	    transportSend(p) // the final reaction can commit AND emit
//	}
//
// Dynamic membership is event-driven too: each committed session stays
// registered under its id inside the member's machine, and the dynamic
// sessions name the group they re-key — one member can serve any number
// of independent groups concurrently with no cross-talk:
//
//	js, _ := alice.JoinSession("room-7/j1", "room-7", nil, "dave")   // members
//	jd, _ := dave.JoinSession("room-7/j1", "", roster, "dave")       // the joiner
//	ls, _ := alice.LeaveSession("room-7/l1", "room-7/j1", []string{"bob"})
//	cs, _ := alice.ConfirmSession("room-7/c1", "room-7/l1")
//
// Members and their Session handles are safe for concurrent use (see the
// Member doc for the exact contract); internal/serve builds a sharded
// multi-group host on top of them for processes that serve thousands of
// concurrent groups over one transport.
package idgka

import (
	"crypto/rand"
	"errors"
	"io"
	"sort"
	"sync"

	"idgka/internal/core"
	"idgka/internal/energy"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/pki"
)

// Report is the operation-counter snapshot of one member: group
// exponentiations, signature operations, certificate handling, symmetric
// operations and radio traffic.
type Report = meter.Report

// EnergyModel prices Reports in Joules using the paper's per-operation
// cost tables.
type EnergyModel = energy.Model

// Config tunes member behaviour. Rand, MaxRetries and StrictNonceRefresh
// carry over to the member's engine.Config; see the field docs in
// internal/engine.
type Config struct {
	// Rand overrides the randomness source (crypto/rand by default).
	Rand io.Reader
	// MaxRetries bounds the retransmission loop on verification failure.
	MaxRetries int
	// StrictNonceRefresh makes Leave/Partition survivors refresh their GQ
	// commitments instead of reusing them as the paper (unsafely)
	// specifies.
	StrictNonceRefresh bool
	// Precompute is ignored: every member builds the fixed-base tables
	// for the group generator and its identity key at creation.
	//
	// Deprecated: precomputation is unconditional. The field remains for
	// one release so existing configurations keep compiling.
	Precompute bool
}

// Authority is the paper's PKG: it owns the system parameters and master
// keys and extracts identity keys for members.
type Authority struct {
	pkg *pki.PKG
	set *params.Set
}

// NewAuthority creates an authority on the embedded production-size
// parameter set (1024-bit group, 160-bit exponents, 1024-bit GQ modulus).
// Deterministic and fast; for fresh parameters use GenerateAuthority.
func NewAuthority() (*Authority, error) {
	return newAuthority(params.Default())
}

// GenerateAuthority creates an authority with freshly generated parameters
// at the paper's sizes. This runs prime searches and takes seconds.
func GenerateAuthority(r io.Reader) (*Authority, error) {
	if r == nil {
		r = rand.Reader
	}
	set, err := params.Generate(r, params.SizeProduction)
	if err != nil {
		return nil, err
	}
	return newAuthority(set)
}

func newAuthority(set *params.Set) (*Authority, error) {
	p, err := pki.NewPKG(rand.Reader, set)
	if err != nil {
		return nil, err
	}
	return &Authority{pkg: p, set: set}, nil
}

// Member is one protocol participant, bound to an extracted identity key.
//
// A Member is safe for concurrent use: the event-driven Session API
// (HandleMessage, Outbox, Tick, Close, the Start*/New* constructors,
// HandlePacket) and the member accessors (GroupKey, Roster, DeadPeers,
// SetPeerDownHandler) may be called from any goroutine. One mutex
// serializes the member's protocol machine, so work on DIFFERENT members
// proceeds in parallel while each member's cryptography stays ordered.
// The lockstep helpers (Establish, Join, ...) are the one exception:
// they drive several members' machines from one goroutine and require
// exclusive use of every member they touch for the duration of the call.
type Member struct {
	mach *engine.Machine
	// mu guards the protocol machine and all mutable member state below:
	// the session-handle registry, every Session handle's fields, and the
	// peer-down record. The peer-down handler is NOT invoked under mu —
	// it runs after the lock is released, so it may call back into the
	// member (e.g. to launch LeaveSession).
	mu sync.Mutex
	// sessions routes engine lifecycle events to the owning event-driven
	// Session handle (see session.go).
	//gkalint:guard mu
	sessions map[string]*Session
	// dead records peers the medium reported down; onPeerDown is the
	// application's notification hook (see SetPeerDownHandler).
	dead map[string]bool
	//gkalint:callback
	onPeerDown func(peer string)
}

// NewMember extracts an identity key and builds a participant with default
// configuration.
func (a *Authority) NewMember(id string) (*Member, error) {
	return a.NewMemberWithConfig(id, Config{})
}

// NewMemberWithConfig extracts an identity key and builds a participant.
func (a *Authority) NewMemberWithConfig(id string, cfg Config) (*Member, error) {
	sk, err := a.pkg.ExtractGQ(id)
	if err != nil {
		return nil, err
	}
	mach, err := engine.NewMachine(engine.Config{
		Set:                a.set.Public(),
		Rand:               cfg.Rand,
		MaxRetries:         cfg.MaxRetries,
		StrictNonceRefresh: cfg.StrictNonceRefresh,
	}, sk, meter.New())
	if err != nil {
		return nil, err
	}
	return &Member{mach: mach}, nil
}

// ID returns the member identity.
func (mb *Member) ID() string { return mb.mach.ID() }

// GroupKey returns the current group key as key material for a symmetric
// session (nil before a session is established).
func (mb *Member) GroupKey() []byte {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	k := mb.mach.Key()
	if k == nil {
		return nil
	}
	return k.Bytes()
}

// Roster returns the current ring order, or nil before establishment.
func (mb *Member) Roster() []string {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	s := mb.mach.Group()
	if s == nil {
		return nil
	}
	return append([]string(nil), s.Roster...)
}

// SetPeerDownHandler installs the peer-death notification hook: it fires
// the first time the medium reports each peer dead — a netsim.TypePeerDown
// control packet fed through any of the member's session handles (or
// HandlePacket), as the TCP transport and the async simulator inject on
// disconnect/crash. The handler runs on the goroutine that delivered the
// notice, AFTER the member lock is released, so it may call back into the
// member — the idiomatic reaction is to evict the peer from every shared
// group via LeaveSession, re-keying the survivors.
func (mb *Member) SetPeerDownHandler(f func(peer string)) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.onPeerDown = f
}

// DeadPeers returns the peers the medium has reported down, sorted.
func (mb *Member) DeadPeers() []string {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	out := make([]string, 0, len(mb.dead))
	for id := range mb.dead {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// notePeerDownLocked records a peer death exactly once; it returns the
// handler to fire once the member lock is released, or nil for repeat
// notices (and when no handler is installed).
func (mb *Member) notePeerDownLocked(peer string) func(string) {
	if mb.dead == nil {
		mb.dead = map[string]bool{}
	}
	if mb.dead[peer] {
		return nil
	}
	mb.dead[peer] = true
	return mb.onPeerDown
}

// Report snapshots the member's operation counters.
func (mb *Member) Report() Report { return mb.mach.Meter().Report() }

// ResetReport clears the member's operation counters.
func (mb *Member) ResetReport() { mb.mach.Meter().Reset() }

// Network is the shared broadcast medium members communicate over.
type Network struct {
	inner *netsim.Network
}

// NewNetwork creates an empty medium.
func NewNetwork() *Network { return &Network{inner: netsim.New()} }

// Attach registers a member on the medium.
func (n *Network) Attach(mb *Member) error {
	return n.inner.Register(mb.ID(), mb.mach.Meter())
}

// Detach removes a member from the medium (e.g. after it leaves).
func (n *Network) Detach(id string) { n.inner.Unregister(id) }

// Totals reports medium-wide message and byte counts.
func (n *Network) Totals() (msgs int, bytes int64) { return n.inner.Totals() }

// unwrap checks a lockstep helper's inputs — a network and no nil
// member in any group — and returns each group's machines.
func unwrap(n *Network, groups ...[]*Member) ([][]*engine.Machine, error) {
	if n == nil {
		return nil, errors.New("idgka: nil network")
	}
	out := make([][]*engine.Machine, len(groups))
	for g, members := range groups {
		out[g] = make([]*engine.Machine, len(members))
		for i, mb := range members {
			if mb == nil {
				return nil, errors.New("idgka: nil member")
			}
			out[g][i] = mb.mach
		}
	}
	return out, nil
}

// Establish runs the two-round authenticated group key agreement of the
// paper's Section 4 over the network. members[0] acts as the trusted
// controller U_1; the slice order is the ring order.
func Establish(n *Network, members []*Member) error {
	ms, err := unwrap(n, members)
	if err != nil {
		return err
	}
	return core.RunInitial(n.inner, ms[0])
}

// Join admits joiner into the established group (3 rounds; Section 7).
// The joiner must already be attached to the network.
func Join(n *Network, members []*Member, joiner *Member) error {
	ms, err := unwrap(n, members, []*Member{joiner})
	if err != nil {
		return err
	}
	return core.RunJoin(n.inner, ms[0], ms[1][0])
}

// Leave removes one member and re-keys the survivors (2 rounds).
func Leave(n *Network, members []*Member, leaver string) error {
	return Partition(n, members, []string{leaver})
}

// Partition removes a set of members and re-keys the survivors (2 rounds).
func Partition(n *Network, members []*Member, leavers []string) error {
	ms, err := unwrap(n, members)
	if err != nil {
		return err
	}
	return core.RunPartition(n.inner, ms[0], leavers)
}

// Merge fuses two established groups into one (3 rounds). All members of
// both groups must be attached to the same network.
func Merge(n *Network, groupA, groupB []*Member) error {
	ms, err := unwrap(n, groupA, groupB)
	if err != nil {
		return err
	}
	return core.RunMerge(n.inner, ms[0], ms[1])
}

// DefaultEnergyModel returns the paper's Table 5 configuration: 133 MHz
// StrongARM with the Spectrum24 WLAN card.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// SensorEnergyModel returns StrongARM with the 100 kbps sensor-class
// transceiver (the other radio of Figure 1).
func SensorEnergyModel() EnergyModel {
	m := energy.DefaultModel()
	m.Radio = energy.Radio100kbps()
	return m
}

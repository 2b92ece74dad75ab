package serve

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"idgka"
	"idgka/internal/engine"
)

// GroupStat is one rung of the multi-group throughput ladder: how fast
// one process establishes (and re-keys) Groups concurrent groups through
// a Host. It is emitted as the `multi_group` section of gkabench -json.
type GroupStat struct {
	Groups          int     `json:"groups"`
	GroupSize       int     `json:"group_size"`
	Pool            int     `json:"pool"`
	EstablishMS     float64 `json:"establish_ms"`
	EstablishPerSec float64 `json:"establish_per_sec"`
	RekeyMS         float64 `json:"rekey_ms"`
	RekeyPerSec     float64 `json:"rekey_per_sec"`
	// Amortized-verify telemetry (zero unless BenchOptions.AmortizeVerify):
	// how many GQ claims the settlement queue checked, in how many
	// coalesced batches, and the lane's throughput — claims divided by
	// the wall time the queue actually spent checking. Claims/batch above
	// 1 is cross-group amortization at work, and VerifyPerSec rises with
	// it as the RLC check spreads its cost over more claims.
	VerifyClaims  uint64  `json:"verify_claims,omitempty"`
	VerifyBatches uint64  `json:"verify_batches,omitempty"`
	VerifyPerSec  float64 `json:"verify_per_sec,omitempty"`
}

// BenchOptions tunes BenchmarkGroups. The zero value selects a pool of 8
// members, 4-member groups, GOMAXPROCS shards and no crypto acceleration.
type BenchOptions struct {
	Pool      int  // member pool size (groups draw rotating rosters from it)
	GroupSize int  // ring size per group
	Shards    int  // host dispatch lanes
	Accel     bool // enable fixed-base precomputation + verify workers
	Workers   int  // verify-worker pool per member when Accel (0 = 4)
	// AmortizeVerify turns on the host's claim settlement queue
	// (Config.AmortizeVerify). Shards defaults to the pool size in this
	// mode, so members parked on a settling batch never starve other
	// members' traffic of a dispatch lane.
	AmortizeVerify bool
}

func (o BenchOptions) pool() int {
	if o.Pool > 0 {
		return o.Pool
	}
	return 8
}

func (o BenchOptions) groupSize() int {
	if o.GroupSize > 1 {
		return o.GroupSize
	}
	return 4
}

// loopback fans host outbounds straight back into the host, scoping
// broadcasts to the emitting session's ring (the multicast a real
// deployment would use) so cross-group noise never reaches machines that
// are not in the group.
type loopback struct {
	mu sync.RWMutex
	//gkalint:guard mu
	h       *Host
	rosters map[string][]string
}

func (l *loopback) setHost(h *Host) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *loopback) addRoster(sid string, roster []string) {
	l.mu.Lock()
	if l.rosters == nil {
		l.rosters = map[string][]string{}
	}
	l.rosters[sid] = roster
	l.mu.Unlock()
}

func (l *loopback) tx(from string, p idgka.Packet) error {
	l.mu.RLock()
	h := l.h
	roster := l.rosters[engine.EnvelopeSID(p.Payload)]
	l.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("serve: loopback has no host")
	}
	if p.To != "" {
		return h.Deliver(p.To, p)
	}
	if roster == nil {
		return h.Deliver("", p)
	}
	for _, id := range roster {
		if id == from {
			continue
		}
		if err := h.Deliver(id, p); err != nil {
			return err
		}
	}
	return nil
}

// SettleGroups blocks until every run of every group settles (or the
// budget expires), verifies each group committed one agreed non-nil key,
// and returns the keys per group. It is the settle-and-cross-check step
// every multi-group driver needs (the bench ladder, gkanet -serve).
func SettleGroups(what string, groups [][]*Run, budget time.Duration) ([][]byte, error) {
	// One timer for the whole call, stopped on return: a time.After per
	// run would keep every timer live until the budget expires.
	timer := time.NewTimer(budget)
	defer timer.Stop()
	keys := make([][]byte, len(groups))
	for g, runs := range groups {
		for _, r := range runs {
			select {
			case <-r.Done():
			case <-timer.C:
				return nil, fmt.Errorf("%s group %d: run %s timed out", what, g, r.SID())
			}
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("%s group %d: %w", what, g, err)
			}
		}
		ref := runs[0].Key()
		if ref == nil {
			return nil, fmt.Errorf("%s group %d committed no key", what, g)
		}
		for _, r := range runs[1:] {
			if !bytes.Equal(r.Key(), ref) {
				return nil, fmt.Errorf("%s group %d disagrees on the key", what, g)
			}
		}
		keys[g] = ref
	}
	return keys, nil
}

// BenchmarkGroups measures multi-group serve-layer throughput: for each
// rung in counts it hosts that many concurrent groups (rotating rosters
// over a fixed member pool), establishes them all, then re-keys each via
// a one-member Leave, reporting establishments/sec and re-keys/sec.
func BenchmarkGroups(counts []int, opt BenchOptions) ([]GroupStat, error) {
	auth, err := idgka.NewAuthority()
	if err != nil {
		return nil, err
	}
	pool, size := opt.pool(), opt.groupSize()
	if size > pool {
		return nil, fmt.Errorf("serve bench: group size %d exceeds pool %d", size, pool)
	}
	// VerifyWorkers is itself an accel knob: without Accel the ladder
	// must measure the exact sequential verification path, whatever
	// Workers the caller filled in.
	workers := 0
	if opt.Accel {
		if workers = opt.Workers; workers <= 0 {
			workers = 4
		}
	}
	ids := make([]string, pool)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%02d", i)
	}

	var stats []GroupStat
	shards := opt.Shards
	if opt.AmortizeVerify && shards == 0 {
		shards = pool
	}
	for _, n := range counts {
		lb := &loopback{}
		host := NewHost(Config{Shards: shards, Deadline: 30 * time.Second, AmortizeVerify: opt.AmortizeVerify}, lb.tx)
		lb.setHost(host)
		for _, id := range ids {
			mb, err := auth.NewMemberWithConfig(id, idgka.Config{
				Precompute:    opt.Accel,
				VerifyWorkers: workers,
			})
			if err != nil {
				host.Close()
				return nil, err
			}
			if err := host.AddMember(mb); err != nil {
				host.Close()
				return nil, err
			}
		}
		rosters := make([][]string, n)
		for g := range rosters {
			r := make([]string, size)
			for j := range r {
				r[j] = ids[(g+j)%pool]
			}
			rosters[g] = r
		}

		// Establish all n groups concurrently.
		est := make([][]*Run, n)
		t0 := time.Now()
		for g, roster := range rosters {
			sid := fmt.Sprintf("bench/g%04d/est", g)
			lb.addRoster(sid, roster)
			for _, id := range roster {
				r, err := host.Start(id, sid, func(mb *idgka.Member) (*idgka.Session, error) {
					return mb.NewSession(sid, roster)
				})
				if err != nil {
					host.Close()
					return nil, err
				}
				est[g] = append(est[g], r)
			}
		}
		if _, err := SettleGroups("establish", est, 2*time.Minute); err != nil {
			host.Close()
			return nil, err
		}
		estElapsed := time.Since(t0)

		// Re-key every group: evict its last ring member via Leave.
		rekey := make([][]*Run, n)
		t1 := time.Now()
		for g, roster := range rosters {
			base := fmt.Sprintf("bench/g%04d/est", g)
			sid := fmt.Sprintf("bench/g%04d/leave", g)
			evict := roster[len(roster)-1]
			survivors := roster[:len(roster)-1]
			lb.addRoster(sid, survivors)
			for _, id := range survivors {
				r, err := host.Start(id, sid, func(mb *idgka.Member) (*idgka.Session, error) {
					return mb.LeaveSession(sid, base, []string{evict})
				})
				if err != nil {
					host.Close()
					return nil, err
				}
				rekey[g] = append(rekey[g], r)
			}
		}
		if _, err := SettleGroups("re-key", rekey, 2*time.Minute); err != nil {
			host.Close()
			return nil, err
		}
		rekeyElapsed := time.Since(t1)
		hostStats := host.Stats()
		host.Close()

		gs := GroupStat{
			Groups:          n,
			GroupSize:       size,
			Pool:            pool,
			EstablishMS:     float64(estElapsed.Microseconds()) / 1000,
			EstablishPerSec: float64(n) / estElapsed.Seconds(),
			RekeyMS:         float64(rekeyElapsed.Microseconds()) / 1000,
			RekeyPerSec:     float64(n) / rekeyElapsed.Seconds(),
		}
		if opt.AmortizeVerify && hostStats.VerifyBusy > 0 {
			gs.VerifyClaims = hostStats.VerifyClaims
			gs.VerifyBatches = hostStats.VerifyBatches
			gs.VerifyPerSec = float64(hostStats.VerifyClaims) / hostStats.VerifyBusy.Seconds()
		}
		stats = append(stats, gs)
	}
	return stats, nil
}

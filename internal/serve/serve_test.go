package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"idgka"
)

// newTestHost builds a host over a loopback transport with pool members.
func newTestHost(t *testing.T, pool int, cfg Config) (*Host, *loopback, []string) {
	t.Helper()
	auth, err := idgka.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	lb := &loopback{}
	h := NewHost(cfg, lb.tx)
	lb.setHost(h)
	t.Cleanup(h.Close)
	ids := make([]string, pool)
	for i := range ids {
		ids[i] = fmt.Sprintf("sv-%02d", i)
		mb, err := auth.NewMember(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AddMember(mb); err != nil {
			t.Fatal(err)
		}
	}
	return h, lb, ids
}

// startGroup launches one flow per roster member and returns the runs.
func startGroup(t *testing.T, h *Host, sid string, roster []string,
	start func(mb *idgka.Member, id string) (*idgka.Session, error)) []*Run {
	t.Helper()
	runs := make([]*Run, 0, len(roster))
	for _, id := range roster {
		id := id
		r, err := h.Start(id, sid, func(mb *idgka.Member) (*idgka.Session, error) {
			return start(mb, id)
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	return runs
}

// awaitGroup waits for every run and asserts one agreed non-nil key.
func awaitGroup(t *testing.T, what string, runs []*Run) []byte {
	t.Helper()
	for _, r := range runs {
		select {
		case <-r.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: run %s timed out", what, r.SID())
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	ref := runs[0].Key()
	if ref == nil {
		t.Fatalf("%s: no key committed", what)
	}
	for _, r := range runs[1:] {
		if !bytes.Equal(r.Key(), ref) {
			t.Fatalf("%s: members disagree on the key", what)
		}
	}
	return ref
}

// TestHostMultiGroupEstablish: one host, one member pool, many groups
// with rotated rosters — all establish concurrently over the shared
// worker pool and commit distinct keys.
func TestHostMultiGroupEstablish(t *testing.T) {
	h, lb, ids := newTestHost(t, 4, Config{})
	const groups = 8
	keys := map[string]bool{}
	all := make([][]*Run, groups)
	for g := 0; g < groups; g++ {
		roster := []string{ids[g%4], ids[(g+1)%4], ids[(g+2)%4]}
		sid := fmt.Sprintf("mg/%02d", g)
		lb.addRoster(sid, roster)
		all[g] = startGroup(t, h, sid, roster, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
			return mb.NewSession(sid, roster)
		})
	}
	for g := 0; g < groups; g++ {
		key := awaitGroup(t, fmt.Sprintf("group %d", g), all[g])
		keys[string(key)] = true
	}
	if len(keys) != groups {
		t.Fatalf("expected %d distinct keys, got %d", groups, len(keys))
	}
	st := h.Stats()
	if st.Members != 4 || st.LiveRuns != 0 || st.Delivered == 0 {
		t.Fatalf("stats after settling: %+v", st)
	}
}

// TestHostChurn is the multi-group churn scenario: dozens of groups over
// one member pool, then per group a Join, a Leave, or a crash-driven
// eviction (peer-down notice + Leave), every re-key confirmed where the
// flow leaves a confirmable group behind.
func TestHostChurn(t *testing.T) {
	h, lb, ids := newTestHost(t, 6, Config{})
	pool := len(ids)

	var downMu sync.Mutex
	downSeen := map[string]int{}
	h.SetPeerDownHandler(func(owner *idgka.Member, peer string) {
		downMu.Lock()
		downSeen[owner.ID()+"<-"+peer]++
		downMu.Unlock()
	})

	const groups = 24
	rosters := make([][]string, groups)
	est := make([][]*Run, groups)
	for g := 0; g < groups; g++ {
		rosters[g] = []string{ids[g%pool], ids[(g+1)%pool], ids[(g+2)%pool]}
		sid := fmt.Sprintf("churn/%02d/est", g)
		lb.addRoster(sid, rosters[g])
		roster := rosters[g]
		est[g] = startGroup(t, h, sid, roster, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
			return mb.NewSession(sid, roster)
		})
	}
	baseKeys := make([][]byte, groups)
	for g := 0; g < groups; g++ {
		baseKeys[g] = awaitGroup(t, fmt.Sprintf("churn est %d", g), est[g])
	}

	for g := 0; g < groups; g++ {
		base := fmt.Sprintf("churn/%02d/est", g)
		roster := rosters[g]
		switch g % 3 {
		case 0: // Join: admit the next pool member not in the ring.
			joiner := ids[(g+3)%pool]
			sid := fmt.Sprintf("churn/%02d/join", g)
			grown := append(append([]string(nil), roster...), joiner)
			lb.addRoster(sid, grown)
			runs := startGroup(t, h, sid, grown, func(mb *idgka.Member, id string) (*idgka.Session, error) {
				if id == joiner {
					return mb.JoinSession(sid, "", roster, joiner)
				}
				return mb.JoinSession(sid, base, nil, joiner)
			})
			key := awaitGroup(t, fmt.Sprintf("churn join %d", g), runs)
			if bytes.Equal(key, baseKeys[g]) {
				t.Fatalf("group %d: join did not rotate the key", g)
			}
			// Confirm the grown group.
			csid := fmt.Sprintf("churn/%02d/cfm", g)
			lb.addRoster(csid, grown)
			cruns := startGroup(t, h, csid, grown, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
				return mb.ConfirmSession(csid, sid)
			})
			if !bytes.Equal(awaitGroup(t, fmt.Sprintf("churn confirm %d", g), cruns), key) {
				t.Fatalf("group %d: confirmation reported a different key", g)
			}
		case 1: // Leave: evict the middle ring member.
			sid := fmt.Sprintf("churn/%02d/leave", g)
			evict := roster[1]
			survivors := []string{roster[0], roster[2]}
			lb.addRoster(sid, survivors)
			runs := startGroup(t, h, sid, survivors, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
				return mb.LeaveSession(sid, base, []string{evict})
			})
			key := awaitGroup(t, fmt.Sprintf("churn leave %d", g), runs)
			if bytes.Equal(key, baseKeys[g]) {
				t.Fatalf("group %d: leave did not rotate the key", g)
			}
		case 2: // Crash: a peer-down notice triggers eviction via Leave.
			victim := roster[2]
			survivors := []string{roster[0], roster[1]}
			for _, id := range survivors {
				if err := h.Deliver(id, idgka.PeerDownPacket(victim)); err != nil {
					t.Fatal(err)
				}
			}
			sid := fmt.Sprintf("churn/%02d/evict", g)
			lb.addRoster(sid, survivors)
			runs := startGroup(t, h, sid, survivors, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
				return mb.LeaveSession(sid, base, []string{victim})
			})
			key := awaitGroup(t, fmt.Sprintf("churn evict %d", g), runs)
			if bytes.Equal(key, baseKeys[g]) {
				t.Fatalf("group %d: eviction did not rotate the key", g)
			}
		}
	}

	// Every survivor that was dealt a peer-down notice saw it exactly
	// once per dead peer (the member collapses duplicates).
	downMu.Lock()
	defer downMu.Unlock()
	if len(downSeen) == 0 {
		t.Fatal("no peer-down callbacks fired")
	}
	for k, n := range downSeen {
		if n != 1 {
			t.Fatalf("peer-down %s fired %d times", k, n)
		}
	}
}

// TestRunCancelAndSupersede: a wedged run is cancelled (waiters unblock
// with the close error), and a new Start under the same sid supersedes a
// live predecessor.
func TestRunCancelAndSupersede(t *testing.T) {
	h, lb, ids := newTestHost(t, 2, Config{})
	roster := []string{ids[0], "ghost"}
	lb.addRoster("wedge", roster)
	r, err := h.Start(ids[0], "wedge", func(mb *idgka.Member) (*idgka.Session, error) {
		return mb.NewSession("wedge", roster)
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.Done():
		t.Fatal("wedged run settled")
	case <-time.After(20 * time.Millisecond):
	}
	r.Cancel()
	if err := r.Wait(); err == nil {
		t.Fatal("cancelled run reported success")
	}
	if st := h.Stats(); st.LiveRuns != 0 {
		t.Fatalf("cancelled run still live: %+v", st)
	}

	// Supersede: two Starts under one sid; the first settles as failed
	// once the second replaces it.
	r1, err := h.Start(ids[0], "dup", func(mb *idgka.Member) (*idgka.Session, error) {
		return mb.NewSession("dup", roster)
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Start(ids[0], "dup", func(mb *idgka.Member) (*idgka.Session, error) {
		return mb.NewSession("dup", roster)
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-r1.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("superseded run never settled")
	}
	if r1.Err() == nil {
		t.Fatal("superseded run reported success")
	}
	r2.Cancel()
}

// TestHostTickerDrivesDeadlines: with a configured deadline and the
// shared ticker, a run whose peer never answers retransmits through its
// budget and then fails with ErrSessionTimeout — no application timer
// involved.
func TestHostTickerDrivesDeadlines(t *testing.T) {
	h, lb, ids := newTestHost(t, 2, Config{
		TickInterval: 5 * time.Millisecond,
		Deadline:     20 * time.Millisecond,
	})
	roster := []string{ids[0], "ghost"}
	lb.addRoster("dead", roster)
	r, err := h.Start(ids[0], "dead", func(mb *idgka.Member) (*idgka.Session, error) {
		return mb.NewSession("dead", roster)
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("deadline never fired")
	}
	if err := r.Err(); !errors.Is(err, idgka.ErrSessionTimeout) {
		t.Fatalf("want ErrSessionTimeout, got %v", err)
	}
	if r.Session().Attempts() == 0 {
		t.Fatal("no retransmission attempt consumed before the timeout")
	}
}

// TestSettleGroupsTimesOut checks a run that never settles fails the
// call once the budget expires, naming the group and the run.
func TestSettleGroupsTimesOut(t *testing.T) {
	stuck := &Run{sid: "stuck", done: make(chan struct{})}
	start := time.Now()
	_, err := SettleGroups("settle", [][]*Run{{stuck}}, 50*time.Millisecond)
	if want := "settle group 0: run stuck timed out"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if el := time.Since(start); el < 50*time.Millisecond || el > 5*time.Second {
		t.Fatalf("SettleGroups returned after %v on a 50ms budget", el)
	}
}

// TestSettleGroupsRejectsEmptyGroup checks a group without runs fails the
// call, naming the group, instead of indexing its missing first run.
func TestSettleGroupsRejectsEmptyGroup(t *testing.T) {
	_, err := SettleGroups("settle", [][]*Run{{}}, 50*time.Millisecond)
	if want := "settle group 0 has no runs"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

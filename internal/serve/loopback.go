package serve

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"idgka"
	"idgka/internal/engine"
)

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
// every multi-group driver needs (the soak harness, gkanet). A group
// without runs has no key to agree on and fails the call.
func SettleGroups(what string, groups [][]*Run, budget time.Duration) ([][]byte, error) {
	// One timer for the whole call, stopped on return: a time.After per
	// run would keep every timer live until the budget expires.
	timer := time.NewTimer(budget)
	defer timer.Stop()
	keys := make([][]byte, len(groups))
	for g, runs := range groups {
		if len(runs) == 0 {
			return nil, fmt.Errorf("%s group %d has no runs", what, g)
		}
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

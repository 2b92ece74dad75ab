package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"idgka"
	"idgka/internal/engine"
)

// Per-member meter counts of one establishment (the paper's Table 1):
// z_i, X_i and the key are three exponentiations, plus one GQ signature
// and one batch verification of all peers' signatures.
var establishCount = count{exp: 3, gen: 1, ver: 1}

// newMembers extracts one member per id, each with the precompute path,
// no inner verify workers, and randomness drawn from the run seed.
func newMembers(e *env, ids []string) ([]*idgka.Member, error) {
	auth, err := idgka.NewAuthority()
	if err != nil {
		return nil, err
	}
	mbs := make([]*idgka.Member, len(ids))
	for i, id := range ids {
		mbs[i], err = auth.NewMemberWithConfig(id, idgka.Config{Precompute: true, Rand: newDRBG(e.seed, id)})
		if err != nil {
			return nil, err
		}
	}
	return mbs, nil
}

// ringBench is the ring32 workload: one ring keyed again and again by a
// single goroutine through the event-driven Session API, routing every
// outbound packet FIFO to its recipients in-process.
type ringBench struct {
	e   *env
	ids []string
	mbs []*idgka.Member
	// records counts the HandleMessage calls since begin that neither emit
	// round 2 nor finish the session.
	records int
}

func buildRing(e *env) (instance, error) {
	n := 32
	if e.small {
		n = 4
	}
	b := &ringBench{e: e}
	for i := 0; i < n; i++ {
		b.ids = append(b.ids, fmt.Sprintf("ring-%02d", i))
	}
	var err error
	if b.mbs, err = newMembers(e, b.ids); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *ringBench) members() []*idgka.Member { return b.mbs }
func (b *ringBench) begin()                   { b.records = 0 }
func (b *ringBench) close()                   {}

func (b *ringBench) report(m map[string]float64, ops int) {
	m["session.record_calls_per_op"] = ratio(float64(b.records), float64(ops))
}

// hop is one packet waiting in the FIFO, with the index of its sender.
type hop struct {
	from int
	p    idgka.Packet
}

func (b *ringBench) op(_, seq int) opResult {
	tr := b.e.tracer()
	sid := fmt.Sprintf("ring/%06d", seq)
	o := tr.open(sid)
	ts, t0 := tr.now(), time.Now()
	res := opResult{expect: map[*idgka.Member]count{}}
	sessions := make([]*idgka.Session, 0, len(b.mbs))
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()

	var fifo []hop
	done := make([]bool, len(b.mbs))
	for i, mb := range b.mbs {
		s0 := tr.now()
		s, err := mb.NewSession(sid, b.ids)
		tr.add(o, spanSessionStart, 0, 0, s0)
		if err != nil {
			res.err = fmt.Errorf("%s: NewSession: %w", b.ids[i], err)
			return res
		}
		sessions = append(sessions, s)
		for _, p := range s.Outbox() {
			fifo = append(fifo, hop{i, p})
		}
		res.expect[mb] = establishCount
	}
	for head := 0; head < len(fifo); head++ {
		h := fifo[head]
		b.e.wire(len(h.p.Payload))
		for j, s := range sessions {
			if j == h.from || (h.p.To != "" && h.p.To != b.ids[j]) {
				continue
			}
			s0 := tr.now()
			err := s.HandleMessage(h.p)
			s1 := tr.now()
			if err != nil {
				res.err = fmt.Errorf("%s: HandleMessage: %w", b.ids[j], err)
				return res
			}
			out := s.Outbox()
			name := spanSessionRecord
			switch {
			case !done[j] && s.Done():
				done[j] = true
				name = spanSessionFinish
			case len(out) > 0 && out[0].Type == engine.MsgRound2:
				name = spanSessionRound2
			default:
				b.records++
			}
			tr.put(o, name, 0, 0, s0, s1)
			for _, p := range out {
				fifo = append(fifo, hop{j, p})
			}
		}
	}
	res.wall = time.Since(t0)
	tr.close(o, ts)
	res.err = checkKeys(sessions)
	return res
}

// checkKeys reports whether every session committed one identical non-nil
// key.
func checkKeys(sessions []*idgka.Session) error {
	var ref []byte
	for i, s := range sessions {
		if !s.Done() {
			return fmt.Errorf("session %d of %s did not finish", i, s.SID())
		}
		if err := s.Err(); err != nil {
			return err
		}
		k := s.Key()
		if k == nil {
			return fmt.Errorf("session %d of %s committed no key", i, s.SID())
		}
		if ref == nil {
			ref = k
		} else if !bytes.Equal(k, ref) {
			return errors.New("members of " + s.SID() + " disagree on the key")
		}
	}
	return nil
}

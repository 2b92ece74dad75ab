package engine

import (
	"testing"

	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// FuzzStep steps arbitrary (Type, Payload) messages into a machine with
// one live initial flow. Whatever the bytes, Step must not panic, every
// outbound it returns must carry its session id, and the early buffer's
// bookkeeping (earlyCount, earlyMulti) must stay exact and bounded. The
// corpus is seeded with the enveloped round-1 and round-2 payloads of a
// 3-member establishment and one truncated envelope.
func FuzzStep(f *testing.F) {
	set := params.Default()
	cfg := Config{Set: set.Public()}
	ring := []string{"fz-01", "fz-02", "fz-03"}
	keys := map[string]*gq.PrivateKey{}
	machines := map[string]*Machine{}
	for _, id := range ring {
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			f.Fatal(err)
		}
		mc, err := NewMachine(cfg, sk, nil)
		if err != nil {
			f.Fatal(err)
		}
		keys[id], machines[id] = sk, mc
	}

	// One FIFO establishment; every payload it puts on the wire seeds
	// the corpus, and fz-03's round 1 primes each fuzzed machine.
	type delivery struct {
		to  string
		msg netsim.Message
	}
	var queue []delivery
	var primer netsim.Message
	send := func(from string, outs []Outbound) {
		for _, o := range outs {
			f.Add(o.Type, o.Payload)
			msg := netsim.Message{From: from, Type: o.Type, Payload: o.Payload}
			if from == "fz-03" && o.Type == MsgRound1 {
				primer = msg
			}
			for _, id := range ring {
				if id != from {
					queue = append(queue, delivery{id, msg})
				}
			}
		}
	}
	for _, id := range ring {
		outs, _, err := machines[id].StartInitial("fz", ring)
		if err != nil {
			f.Fatal(err)
		}
		send(id, outs)
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		outs, _ := machines[d.to].Step(d.msg)
		send(d.to, outs)
	}
	if machines["fz-01"].Session("fz") == nil {
		f.Fatal("seed establishment did not commit")
	}
	f.Add(MsgRound1, Envelope("fz", 0, nil)[:6])

	f.Fuzz(func(t *testing.T, typ string, payload []byte) {
		mc, err := NewMachine(cfg, keys["fz-02"], nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := mc.StartInitial("fz", ring); err != nil {
			t.Fatal(err)
		}
		mc.Step(primer)
		for _, from := range []string{"fz-01", "fz-03"} {
			outs, _ := mc.Step(netsim.Message{From: from, Type: typ, Payload: payload})
			for _, o := range outs {
				if o.SID == "" {
					t.Fatalf("%s outbound without a session id", o.Type)
				}
			}
			if err := checkEarly(mc); err != nil {
				t.Fatal(err)
			}
			multi := 0
			for _, q := range mc.early {
				if len(q) > 1 {
					multi++
				}
			}
			if multi != mc.earlyMulti {
				t.Fatalf("earlyMulti = %d, %d queues hold more than one message", mc.earlyMulti, multi)
			}
		}
	})
}

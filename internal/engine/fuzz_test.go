package engine

import (
	"testing"

	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// FuzzStep steps arbitrary (Type, Payload) messages into two machines of
// member fz-02: one in a live initial flow, one in a live partition flow
// on a committed base. Whatever the bytes, Step must not panic, every
// outbound it returns must carry its session id, every failure it reports
// must be retryable (reject-or-retry: peer bytes never cause a terminal
// failure), and the early buffer's bookkeeping (earlyCount, earlyMulti)
// must stay exact and bounded. The corpus is seeded with the enveloped
// payloads of a 3-member establishment, of a 3-survivor partition, and
// one truncated envelope.
func FuzzStep(f *testing.F) {
	set := params.Default()
	cfg := Config{Set: set.Public()}
	ring := []string{"fz-01", "fz-02", "fz-03"}
	base := append(ring[:3:3], "fz-04")
	keys := map[string]*gq.PrivateKey{}
	machines := map[string]*Machine{}
	for _, id := range base {
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

	// FIFO runs: every payload they put on the wire seeds the corpus and
	// is kept by (session, sender, type) to prime the fuzzed machines.
	type delivery struct {
		to  string
		msg netsim.Message
	}
	sent := map[[3]string]netsim.Message{}
	run := func(sid string, members []string, start func(mc *Machine) ([]Outbound, []Event, error)) {
		var queue []delivery
		send := func(from string, outs []Outbound) {
			for _, o := range outs {
				f.Add(o.Type, o.Payload)
				msg := netsim.Message{From: from, Type: o.Type, Payload: o.Payload}
				sent[[3]string{sid, from, o.Type}] = msg
				for _, id := range members {
					if id != from {
						queue = append(queue, delivery{id, msg})
					}
				}
			}
		}
		for _, id := range members {
			outs, _, err := start(machines[id])
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
	}
	run("fz", ring, func(mc *Machine) ([]Outbound, []Event, error) { return mc.StartInitial("fz", ring) })
	run("fzb", base, func(mc *Machine) ([]Outbound, []Event, error) { return mc.StartInitial("fzb", base) })
	survivors, refresh, err := PlanLeave(machines["fz-01"].Session("fzb"), []string{"fz-04"})
	if err != nil {
		f.Fatal(err)
	}
	run("fzp", survivors, func(mc *Machine) ([]Outbound, []Event, error) {
		return mc.StartPartition("fzp", "fzb", survivors, refresh)
	})
	if machines["fz-01"].Session("fz") == nil || machines["fz-01"].Session("fzp") == nil {
		f.Fatal("seed runs did not commit")
	}
	// fz-02 stays silent in round 1 of the partition (even position), so
	// its fuzzed twin needs fz-01's and fz-03's broadcasts of both rounds.
	committed := machines["fz-02"].Session("fzb")
	honest := []netsim.Message{
		sent[[3]string{"fzp", "fz-01", MsgLeave1}], sent[[3]string{"fzp", "fz-03", MsgLeave1}],
		sent[[3]string{"fzp", "fz-01", MsgLeave2}], sent[[3]string{"fzp", "fz-03", MsgLeave2}],
	}
	f.Add(MsgRound1, Envelope("fz", 0, nil)[:6])

	// fz-02's twin in the initial flow, primed with fz-03's round 1.
	primer := sent[[3]string{"fz", "fz-03", MsgRound1}]
	initial := func(fatal func(...any)) *Machine {
		mc, err := NewMachine(cfg, keys["fz-02"], nil)
		if err != nil {
			fatal(err)
		}
		if _, _, err := mc.StartInitial("fz", ring); err != nil {
			fatal(err)
		}
		return mc
	}
	// The primer must belong to the fuzzed session: with fz-01's honest
	// round 1 added, the twin completes round 1 and broadcasts round 2.
	// A primer from another run would sit in the early buffer instead,
	// and the fuzzer could never reach round 2 of the initial flow.
	mc := initial(f.Fatal)
	mc.Step(primer)
	if mc.Buffered("fzb") != 0 || mc.Buffered("fz") != 0 {
		f.Fatal("initial-flow primer was buffered, not delivered")
	}
	outs, _ := mc.Step(sent[[3]string{"fz", "fz-01", MsgRound1}])
	if len(outs) != 1 || outs[0].Type != MsgRound2 {
		f.Fatalf("primed initial flow did not reach round 2: %d outbounds", len(outs))
	}

	f.Fuzz(func(t *testing.T, typ string, payload []byte) {
		step := func(mc *Machine, msg netsim.Message) {
			outs, evts := mc.Step(msg)
			for _, o := range outs {
				if o.SID == "" {
					t.Fatalf("%s outbound without a session id", o.Type)
				}
			}
			for _, ev := range evts {
				if ev.Kind == EventFailed && !ev.Retryable {
					t.Fatalf("non-retryable failure from peer bytes: %v", ev.Err)
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
		fuzzed := func(from string) netsim.Message {
			return netsim.Message{From: from, Type: typ, Payload: payload}
		}

		// Initial flow: fz-03's round 1 is on file, then the fuzzed
		// frame arrives from both peers.
		mc := initial(t.Fatal)
		step(mc, primer)
		step(mc, fuzzed("fz-01"))
		step(mc, fuzzed("fz-03"))

		// Partition flow: the fuzzed frame from fz-01 arrives ahead of
		// every honest message, so it wins over fz-01's own broadcast of
		// its type and can reach round 2 and the key computation.
		pm, err := NewMachine(cfg, keys["fz-02"], nil)
		if err != nil {
			t.Fatal(err)
		}
		pm.sessions["fzb"] = committed
		if _, _, err := pm.StartPartition("fzp", "fzb", survivors, refresh); err != nil {
			t.Fatal(err)
		}
		step(pm, fuzzed("fz-01"))
		for _, msg := range honest {
			step(pm, msg)
		}
	})
}

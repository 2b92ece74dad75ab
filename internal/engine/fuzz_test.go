package engine

import (
	"bytes"
	"crypto/rand"
	"io"
	"slices"
	"testing"

	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// FuzzStep steps arbitrary (Type, Payload) messages into machines in
// live flows: two of member fz-02, in an initial flow and in a partition
// flow on a committed base, and, for a frame of the Join or Merge
// session, one of five in the dynamic flows — U_1, U_n and the joiner of
// a Join, one controller and one ordinary member of a Merge. Whatever
// the bytes, Step must not panic, every outbound it returns must carry
// its session id, every failure it reports must be retryable
// (reject-or-retry: peer bytes never cause a terminal failure), and the
// early buffer's bookkeeping (earlyCount, earlyMulti) must stay exact
// and bounded. The corpus is seeded with the enveloped
// payloads of a 3-member establishment, of a 3-survivor partition, of a
// Join into the 3-member group and of its Merge with a 2-member group,
// and one truncated envelope.
func FuzzStep(f *testing.F) {
	set := params.Default()
	cfg := Config{Set: set.Public()}
	ring := []string{"fz-01", "fz-02", "fz-03"}
	base := append(ring[:3:3], "fz-04")
	ringB := []string{"fz-06", "fz-07"}
	keys := map[string]*gq.PrivateKey{}
	machines := map[string]*Machine{}
	tapes := map[string]*tape{}
	for _, id := range append(base, "fz-05", "fz-06", "fz-07") {
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			f.Fatal(err)
		}
		tapes[id] = &tape{}
		mc, err := NewMachine(Config{Set: cfg.Set, Rand: tapes[id]}, sk, nil)
		if err != nil {
			f.Fatal(err)
		}
		keys[id], machines[id] = sk, mc
	}

	// FIFO runs: every payload they put on the wire seeds the corpus and
	// is kept by (session, sender, type), and in send order per session,
	// to prime the fuzzed machines. Each member's random draws in a run
	// are kept by (session, member).
	type delivery struct {
		to  string
		msg netsim.Message
	}
	sent := map[[3]string]netsim.Message{}
	traffic := map[string][]netsim.Message{}
	draws := map[[2]string][]byte{}
	run := func(sid string, members []string, start func(mc *Machine) ([]Outbound, []Event, error)) {
		var queue []delivery
		send := func(from string, outs []Outbound) {
			for _, o := range outs {
				f.Add(o.Type, o.Payload)
				msg := netsim.Message{From: from, Type: o.Type, Payload: o.Payload}
				sent[[3]string{sid, from, o.Type}] = msg
				traffic[sid] = append(traffic[sid], msg)
				for _, id := range members {
					if id != from {
						queue = append(queue, delivery{id, msg})
					}
				}
			}
		}
		for _, id := range members {
			tapes[id].b = nil
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
		for _, id := range members {
			draws[[2]string{sid, id}] = tapes[id].b
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

	// fz-05 joins ring fz, and ring fz merges with ring fzc. Every member
	// but the joiner names its committed base session.
	join := func(mc *Machine) ([]Outbound, []Event, error) {
		if mc.id == "fz-05" {
			return mc.StartJoin("fzj", "", ring, "fz-05")
		}
		return mc.StartJoin("fzj", "fz", ring, "fz-05")
	}
	merge := func(mc *Machine) ([]Outbound, []Event, error) {
		if slices.Contains(ringB, mc.id) {
			return mc.StartMerge("fzm", "fzc", ring, ringB)
		}
		return mc.StartMerge("fzm", "fz", ring, ringB)
	}
	run("fzj", append(ring[:3:3], "fz-05"), join)
	run("fzc", ringB, func(mc *Machine) ([]Outbound, []Event, error) { return mc.StartInitial("fzc", ringB) })
	run("fzm", append(ring[:3:3], ringB...), merge)
	if machines["fz-05"].Session("fzj") == nil || machines["fz-02"].Session("fzm") == nil {
		f.Fatal("join and merge seed runs did not commit")
	}
	// The dynamic twins: each takes the fuzzed frame from every peer that
	// sends in its script, ahead of the honest traffic, so the frame wins
	// that peer's slot of its type and can reach the key computation.
	dynamic := []struct {
		id, base string
		start    func(mc *Machine) ([]Outbound, []Event, error)
		sid      string
		from     []string
	}{
		{"fz-01", "fz", join, "fzj", []string{"fz-05", "fz-03"}},           // Join: U_1
		{"fz-03", "fz", join, "fzj", []string{"fz-05", "fz-01"}},           // Join: U_n
		{"fz-05", "", join, "fzj", []string{"fz-03", "fz-01"}},             // Join: the joiner
		{"fz-01", "fz", merge, "fzm", []string{"fz-06", "fz-03"}},          // Merge: controller of ring fz
		{"fz-02", "fz", merge, "fzm", []string{"fz-01", "fz-06", "fz-03"}}, // Merge: ordinary member
	}
	// reads[i] holds the types dynamic[i]'s senders send in the seed run.
	// A twin skips a frame of another type, which its flow ignores, and a
	// frame of another session, which only reaches its early buffer (the
	// machines below exercise that).
	reads := make([]map[string]bool, len(dynamic))
	for i, d := range dynamic {
		reads[i] = map[string]bool{}
		for _, msg := range traffic[d.sid] {
			if slices.Contains(d.from, msg.From) {
				reads[i][msg.Type] = true
			}
		}
	}
	// twin starts a fresh machine of dynamic[i]'s member on its committed
	// base session and passes it lead, then each message of the seed
	// run's traffic that a peer sent. The twin replays the member's draws
	// in the seed run, so until lead makes it diverge, its secrets and
	// keys are the ones that traffic was made for.
	twin := func(fatal func(...any), i int, lead []netsim.Message, step func(*Machine, netsim.Message)) *Machine {
		d := dynamic[i]
		replay := io.MultiReader(bytes.NewReader(draws[[2]string{d.sid, d.id}]), rand.Reader)
		mc, err := NewMachine(Config{Set: cfg.Set, Rand: replay}, keys[d.id], nil)
		if err != nil {
			fatal(err)
		}
		if d.base != "" {
			mc.sessions[d.base] = machines[d.id].Session(d.base)
		}
		if _, _, err := d.start(mc); err != nil {
			fatal(err)
		}
		for _, msg := range lead {
			step(mc, msg)
		}
		for _, msg := range traffic[d.sid] {
			if msg.From != d.id {
				step(mc, msg)
			}
		}
		return mc
	}
	// Without a fuzzed frame every twin commits: the traffic is the right
	// session's, so the fuzzed frame can reach the key computation.
	for i, d := range dynamic {
		if twin(f.Fatal, i, nil, func(mc *Machine, msg netsim.Message) { mc.Step(msg) }).Session(d.sid) == nil {
			f.Fatalf("%s's %s twin did not commit on the seed run's traffic", d.id, d.sid)
		}
	}

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

		// Dynamic flows: one twin per input, picked by the payload's
		// length among those that read the frame. The frame arrives from
		// every sender in the twin's script first.
		sid, _, _, err := OpenEnvelope(payload)
		if err != nil {
			return
		}
		var pick []int
		for i, d := range dynamic {
			if d.sid == sid && reads[i][typ] {
				pick = append(pick, i)
			}
		}
		if len(pick) == 0 {
			return
		}
		i := pick[len(payload)%len(pick)]
		var lead []netsim.Message
		for _, from := range dynamic[i].from {
			lead = append(lead, fuzzed(from))
		}
		twin(t.Fatal, i, lead, step)
	})
}

// tape is a randomness source that records what it hands out, so a fuzzed
// twin can replay a seed run member's draws.
type tape struct{ b []byte }

func (t *tape) Read(p []byte) (int, error) {
	n, err := rand.Read(p)
	t.b = append(t.b, p[:n]...)
	return n, err
}

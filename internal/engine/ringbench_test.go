package engine_test

import (
	"fmt"
	"testing"

	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// fifoEstablish runs one initial GKA over ring in FIFO delivery order and
// releases the session on every member.
func fifoEstablish(tb testing.TB, nodes map[string]*node, ring []string, sid string) {
	var queue []busDelivery
	send := func(from string, outs []engine.Outbound) {
		for _, o := range outs {
			for _, id := range ring {
				if id != from {
					queue = append(queue, busDelivery{to: id, msg: netsim.Message{From: from, Type: o.Type, Payload: o.Payload}})
				}
			}
		}
	}
	for _, id := range ring {
		outs, _, err := nodes[id].mc.StartInitial(sid, ring)
		if err != nil {
			tb.Fatal(err)
		}
		send(id, outs)
	}
	for head := 0; head < len(queue); head++ {
		d := queue[head]
		outs, _ := nodes[d.to].mc.Step(d.msg)
		send(d.to, outs)
	}
	for _, id := range ring {
		nodes[id].mc.Release(sid)
	}
}

// BenchmarkRingFIFO32 is the engine's share of gkaperf's ring32 workload
// without the Session layer: one 32-member establishment per op, every
// machine in one goroutine, deliveries in FIFO order.
func BenchmarkRingFIFO32(b *testing.B) {
	ring := make([]string, 32)
	for i := range ring {
		ring[i] = fmt.Sprintf("bench-%02d", i)
	}
	nodes := seededNodes(b, ring, "bench")
	fifoEstablish(b, nodes, ring, "warm")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fifoEstablish(b, nodes, ring, fmt.Sprintf("b%d", i))
	}
}

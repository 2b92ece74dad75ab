package engine

import (
	"fmt"
	"strconv"
	"testing"

	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// checkEarly verifies the early buffer's bookkeeping: earlyCount is the
// number of buffered messages, no session id is kept with an empty
// queue, and the buffer stays within maxEarlyBuffer.
func checkEarly(mc *Machine) error {
	total := 0
	for sid, q := range mc.early {
		if len(q) == 0 {
			return fmt.Errorf("early buffer keeps an empty queue for %q", sid)
		}
		total += len(q)
	}
	if total != mc.earlyCount {
		return fmt.Errorf("earlyCount = %d, queues hold %d messages", mc.earlyCount, total)
	}
	if mc.earlyCount > maxEarlyBuffer || len(mc.early) > maxEarlyBuffer {
		return fmt.Errorf("early buffer holds %d messages under %d session ids, bound %d",
			mc.earlyCount, len(mc.early), maxEarlyBuffer)
	}
	return nil
}

// TestEarlyBufferBoundedUnderSIDSpray: a peer spraying frames under ever
// new session ids must not grow the early buffer's key set past
// maxEarlyBuffer: eviction drops a session id once its queue empties.
func TestEarlyBufferBoundedUnderSIDSpray(t *testing.T) {
	set := params.Default()
	sk, err := gq.Extract(set.RSA, "spray-01")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMachine(Config{Set: set.Public()}, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	for i := 0; i < 3*maxEarlyBuffer; i++ {
		payload := append(wire.NewBuffer().PutString("spray/"+strconv.Itoa(i)).PutUint(0).Bytes(), body...)
		mc.Step(netsim.Message{From: "spray-02", Type: MsgRound1, Payload: payload})
	}
	if err := checkEarly(mc); err != nil {
		t.Fatal(err)
	}
	if mc.earlyCount != maxEarlyBuffer {
		t.Fatalf("earlyCount = %d after the spray, want %d", mc.earlyCount, maxEarlyBuffer)
	}
}

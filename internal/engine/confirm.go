package engine

import (
	"crypto/subtle"
	"fmt"

	"idgka/internal/hashx"
	"idgka/internal/netsim"
	"idgka/internal/wire"
)

// confirmFlow runs an optional explicit key-confirmation round — an
// extension beyond the paper (whose protocols provide only implicit key
// authentication): every member broadcasts H(key ‖ id ‖ roster) and checks
// every peer's digest. One hash broadcast per member; detects any
// divergence in the computed group key before the key is used.
type confirmFlow struct {
	mc *Machine
	g  *Group

	started bool
	got     map[string]bool
}

// StartConfirm begins key confirmation over the committed session named
// by base (empty base selects the machine's most recently committed
// group, for single-group lockstep drivers).
func (mc *Machine) StartConfirm(sid, base string) ([]Outbound, []Event, error) {
	g, err := mc.baseGroup(base)
	if err != nil {
		return nil, nil, err
	}
	f := &confirmFlow{mc: mc, g: g, got: map[string]bool{}}
	return mc.start(sid, f, g.Size())
}

// digest computes H(key ‖ id ‖ roster) for one claimed holder.
func (f *confirmFlow) digest(holder string) []byte {
	chunks := [][]byte{f.g.Key.BigVarTime().Bytes(), []byte(holder)}
	for _, id := range f.g.Roster {
		chunks = append(chunks, []byte(id))
	}
	return hashx.Sum(hashx.TagKeyConfirm, chunks...)
}

func (f *confirmFlow) deliver(msg netsim.Message) error {
	if msg.Type != MsgConfirm {
		return nil
	}
	r := wire.NewReader(msg.Payload)
	peer := r.String()
	got := r.Bytes()
	if err := r.Close(); err != nil {
		return Retryable(fmt.Errorf("engine: confirm from %s: %w", msg.From, err))
	}
	if peer != msg.From || f.g.Position(peer) < 0 {
		return nil // digests from non-members are ignored
	}
	if peer == f.mc.id {
		// A loopback or echoing medium can reflect the member's own digest
		// back; counting it would complete confirmation one real peer
		// short.
		return nil
	}
	if subtle.ConstantTimeCompare(got, f.digest(peer)) != 1 {
		// Deliberately NOT Retryable: a mismatched digest means the peers
		// computed different keys, which re-broadcasting digests cannot
		// cure — the application must re-run the keying flow itself.
		return fmt.Errorf("engine: key confirmation failed: %s and %s disagree", f.mc.id, peer)
	}
	f.got[peer] = true
	return nil
}

func (f *confirmFlow) advance() ([]Outbound, []Event, error) {
	var outs []Outbound
	if !f.started {
		payload := wire.NewBuffer().PutString(f.mc.id).PutBytes(f.digest(f.mc.id)).Bytes()
		outs = append(outs, Outbound{Type: MsgConfirm, Payload: payload})
		f.started = true
	}
	if len(f.got) == f.g.Size()-1 {
		// The event carries the flow's snapshot of the confirmed group, so
		// consumers need not re-read mutable registry state.
		return outs, []Event{{Kind: EventConfirmed, Group: f.g}}, nil
	}
	return outs, nil, nil
}

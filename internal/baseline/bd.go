// Package baseline implements the four comparison protocols of the paper's
// Table 1 and the BD re-run dynamics of Table 4:
//
//   - Burmester-Desmedt authenticated with per-peer signatures under SOK
//     (ID-based, pairing), ECDSA (certificate-based, secp160r1) or DSA
//     (certificate-based, 1024-bit);
//   - the Saeednia-Safavi-Naini ID-based scheme (reconstruction; see
//     docs/ARCHITECTURE.md#accounting-conventions); and
//   - dynamic membership handled by re-running the full protocol, the
//     strategy the paper charges the baselines with.
//
// The package shares the ring mathematics with internal/core through
// internal/bdkey, and meters the exact operations Table 1 charges.
package baseline

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/bdkey"
	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/wire"
)

// Message type labels.
const (
	MsgBDRound1 = "bd/round1" // id ‖ z_i ‖ [certificate]
	MsgBDRound2 = "bd/round2" // id ‖ X_i ‖ σ_i
)

// Authenticator abstracts the signature scheme a BD run is authenticated
// with. Implementations meter nothing themselves; the engine charges the
// paper's operation counts.
type Authenticator interface {
	// Scheme identifies the signature scheme for metering and pricing.
	Scheme() meter.Scheme
	// Sign produces a signature over msg.
	Sign(rnd io.Reader, msg []byte) ([]byte, error)
	// Verify checks a peer's signature. For ID-based schemes the peer
	// identity is the verification key; certificate-based schemes resolve
	// the key from a previously checked credential.
	Verify(peerID string, msg, sig []byte) error
	// Credential returns the certificate to attach to round 1, or nil for
	// ID-based schemes.
	Credential() []byte
	// CheckCredential verifies and caches a peer's certificate; it is a
	// no-op for ID-based schemes.
	CheckCredential(peerID string, cred []byte) error
	// UsesMapToPoint reports whether each verification performs a
	// MapToPoint (true for SOK), so the engine can charge Table 1's row.
	UsesMapToPoint() bool
}

// Participant is one member of a baseline BD run.
type Participant struct {
	id   string
	set  *params.Set
	auth Authenticator
	m    *meter.Meter
	rnd  io.Reader

	// Session result.
	roster []string
	r      *big.Int
	z      map[string]*big.Int
	key    *big.Int
}

// NewParticipant wires up a BD participant.
func NewParticipant(id string, set *params.Set, auth Authenticator, m *meter.Meter, rnd io.Reader) (*Participant, error) {
	if id == "" || set == nil || auth == nil {
		return nil, errors.New("baseline: incomplete participant")
	}
	if rnd == nil {
		rnd = rand.Reader
	}
	return &Participant{id: id, set: set, auth: auth, m: m, rnd: rnd}, nil
}

// ID returns the participant identity.
func (p *Participant) ID() string { return p.id }

// Key returns the agreed group key (nil before RunBD succeeds).
func (p *Participant) Key() *big.Int { return p.key }

// Meter returns the participant's meter.
func (p *Participant) Meter() *meter.Meter { return p.m }

// RunBD executes signature-authenticated Burmester-Desmedt over the
// network: round 1 broadcasts z_i (plus a certificate for cert-based
// schemes), round 2 broadcasts X_i signed over U_i ‖ z_i ‖ X_i ‖ Πz_j,
// and every member verifies all n-1 peer signatures individually — the
// cost the proposed protocol's batch verification removes.
func RunBD(net netsim.Medium, parts []*Participant) error {
	if len(parts) < 2 {
		return errors.New("baseline: BD needs at least 2 members")
	}
	roster := make([]string, len(parts))
	for i, p := range parts {
		roster[i] = p.id
	}
	sg := parts[0].set.Schnorr

	// Round 1.
	for _, p := range parts {
		r, err := mathx.RandScalar(p.rnd, sg.Q)
		if err != nil {
			return err
		}
		p.roster = roster
		p.r = r
		p.z = map[string]*big.Int{p.id: sg.Exp(r)}
		p.m.Exp(1)
		cred := p.auth.Credential()
		if cred != nil {
			p.m.Cert(1, 0, 0)
		}
		payload := wire.NewBuffer().PutString(p.id).PutBig(p.z[p.id]).PutBytes(cred).Bytes()
		if err := net.Broadcast(p.id, MsgBDRound1, payload); err != nil {
			return err
		}
	}
	// Ingest round 1: store z, check credentials.
	for _, p := range parts {
		msgs, err := net.RecvType(p.id, MsgBDRound1)
		if err != nil {
			return err
		}
		for _, msg := range msgs {
			r := wire.NewReader(msg.Payload)
			id := r.String()
			z := r.Big()
			cred := r.Bytes()
			if err := r.Close(); err != nil {
				return fmt.Errorf("baseline: round1 from %s: %w", msg.From, err)
			}
			if id != msg.From {
				return errors.New("baseline: round1 identity mismatch")
			}
			if len(cred) > 0 {
				if err := p.auth.CheckCredential(id, cred); err != nil {
					return fmt.Errorf("baseline: %s rejects certificate of %s: %w", p.id, id, err)
				}
				p.m.Cert(0, 1, 1)
			}
			p.z[id] = z
		}
		if len(p.z) != len(roster) {
			return fmt.Errorf("baseline: %s has %d of %d round-1 values", p.id, len(p.z), len(roster))
		}
	}

	// Round 2: X_i signed over U_i ‖ z_i ‖ X_i ‖ Πz_j.
	type r2state struct {
		x   *big.Int
		sig []byte
	}
	states := make(map[string]*r2state, len(parts))
	for _, p := range parts {
		idx := indexOf(roster, p.id)
		n := len(roster)
		x, err := bdkey.XValue(p.z[roster[(idx+1)%n]], p.z[roster[(idx-1+n)%n]], p.r, sg.P)
		if err != nil {
			return err
		}
		p.m.Exp(1)
		zs := make([]*big.Int, n)
		for i, id := range roster {
			zs[i] = p.z[id]
		}
		zProd := mathx.ProductMod(zs, sg.P)
		signed := signedPayload(p.id, p.z[p.id], x, zProd)
		sig, err := p.auth.Sign(p.rnd, signed)
		if err != nil {
			return err
		}
		p.m.SignGen(p.auth.Scheme(), 1)
		states[p.id] = &r2state{x: x, sig: sig}
		payload := wire.NewBuffer().PutString(p.id).PutBig(x).PutBytes(sig).Bytes()
		if err := net.Broadcast(p.id, MsgBDRound2, payload); err != nil {
			return err
		}
	}
	// Ingest round 2: verify all peer signatures, check Lemma 1, compute
	// the key.
	for _, p := range parts {
		msgs, err := net.RecvType(p.id, MsgBDRound2)
		if err != nil {
			return err
		}
		xs := map[string]*big.Int{p.id: states[p.id].x}
		n := len(roster)
		zs := make([]*big.Int, n)
		for i, id := range roster {
			zs[i] = p.z[id]
		}
		zProd := mathx.ProductMod(zs, sg.P)
		for _, msg := range msgs {
			r := wire.NewReader(msg.Payload)
			id := r.String()
			x := r.Big()
			sig := r.Bytes()
			if err := r.Close(); err != nil {
				return fmt.Errorf("baseline: round2 from %s: %w", msg.From, err)
			}
			if id != msg.From {
				return errors.New("baseline: round2 identity mismatch")
			}
			signed := signedPayload(id, p.z[id], x, zProd)
			if err := p.auth.Verify(id, signed, sig); err != nil {
				return fmt.Errorf("baseline: %s rejects signature of %s: %w", p.id, id, err)
			}
			p.m.SignVer(p.auth.Scheme(), 1)
			if p.auth.UsesMapToPoint() {
				p.m.MapToPoint(1)
			}
			xs[id] = x
		}
		if len(xs) != n {
			return fmt.Errorf("baseline: %s has %d of %d round-2 values", p.id, len(xs), n)
		}
		ordered := make([]*big.Int, n)
		for i, id := range roster {
			ordered[i] = xs[id]
		}
		if err := bdkey.CheckLemma1(ordered, sg.P); err != nil {
			return err
		}
		idx := indexOf(roster, p.id)
		key, err := bdkey.Key(idx, p.r, p.z[roster[(idx-1+n)%n]], ordered, sg.P)
		if err != nil {
			return err
		}
		p.m.Exp(1)
		p.key = key
	}
	return nil
}

// signedPayload builds the message each member signs in round 2:
// U_i ‖ z_i ‖ X_i ‖ Πz_j, covering both rounds' keying material.
func signedPayload(id string, z, x, zProd *big.Int) []byte {
	return wire.NewBuffer().PutString(id).PutBig(z).PutBig(x).PutBig(zProd).Bytes()
}

func indexOf(roster []string, id string) int {
	for i, v := range roster {
		if v == id {
			return i
		}
	}
	return -1
}

// RunBDRekey re-runs the full BD protocol over a new member set — the
// paper's baseline strategy for Join, Leave, Merge and Partition events.
func RunBDRekey(net netsim.Medium, parts []*Participant) error {
	for _, p := range parts {
		p.key = nil
		p.z = nil
	}
	return RunBD(net, parts)
}

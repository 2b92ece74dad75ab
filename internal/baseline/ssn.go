package baseline

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/bdkey"
	"idgka/internal/hashx"
	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// SSN message labels.
const (
	MsgSSNRound1 = "ssn/round1" // id ‖ z_i ‖ w_i
	MsgSSNRound2 = "ssn/round2" // id ‖ X_i
)

// SSNParticipant is a member of the Saeednia-Safavi-Naini reconstruction:
// an ID-based Burmester-Desmedt variant over the composite GQ modulus in
// which each member's round-1 value is implicitly authenticated with its
// identity key (no signatures at all), at the price of two modular
// exponentiations per peer — the Θ(n) exponentiation count Table 1 charges
// the SSN column with (paper: 2n+4 per user; this reconstruction: 2n+2,
// see docs/ARCHITECTURE.md#accounting-conventions).
//
// Round 1: U_i draws r_i, broadcasts z_i = g^{r_i} mod N and the
// authenticator w_i = S_i · z_i^{h_i} mod N where h_i = H(ID_i ‖ z_i) and
// S_i = H(ID_i)^d is the GQ identity key. Receivers check
//
//	w_j^e == H(ID_j) · z_j^{h_j·e} (mod N)
//
// which holds because w_j^e = S_j^e · z_j^{h_j e} = H(ID_j) · z_j^{h_j e}.
// Round 2 and key computation are standard BD over Z_N^*.
type SSNParticipant struct {
	id  string
	sk  *gq.PrivateKey
	g   *big.Int // public base of large order in Z_N^*
	m   *meter.Meter
	rnd io.Reader

	roster []string
	r      *big.Int
	z      map[string]*big.Int
	key    *big.Int
}

// SSNBase is the fixed public base used by the reconstruction. Its order
// in Z_N^* is overwhelming for random RSA moduli.
var SSNBase = big.NewInt(2)

// NewSSNParticipant builds a member from its GQ identity key.
func NewSSNParticipant(sk *gq.PrivateKey, m *meter.Meter, rnd io.Reader) (*SSNParticipant, error) {
	if sk == nil {
		return nil, errors.New("baseline: nil identity key")
	}
	if rnd == nil {
		rnd = rand.Reader
	}
	return &SSNParticipant{id: sk.ID, sk: sk, g: SSNBase, m: m, rnd: rnd}, nil
}

// ID returns the member identity.
func (p *SSNParticipant) ID() string { return p.id }

// Key returns the agreed key, nil before RunSSN.
func (p *SSNParticipant) Key() *big.Int { return p.key }

// Meter returns the member's meter.
func (p *SSNParticipant) Meter() *meter.Meter { return p.m }

// ssnExponentBits is the size of the ephemeral exponents (matching the
// 160-bit working exponents of the paper's setting).
const ssnExponentBits = 160

// RunSSN executes the reconstruction over the network.
func RunSSN(net netsim.Medium, parts []*SSNParticipant) error {
	if len(parts) < 2 {
		return errors.New("baseline: SSN needs at least 2 members")
	}
	roster := make([]string, len(parts))
	for i, p := range parts {
		roster[i] = p.id
	}
	n := parts[0].sk.Pub.N
	e := parts[0].sk.Pub.E
	bound := new(big.Int).Lsh(mathx.One, ssnExponentBits)

	// Round 1: z_i, w_i.
	for _, p := range parts {
		r, err := mathx.RandScalar(p.rnd, bound)
		if err != nil {
			return err
		}
		z := new(big.Int).Exp(p.g, r, n)
		p.m.Exp(1)
		h := hashx.ScalarDigest(hashx.TagTranscript, bound, []byte(p.id), z.Bytes())
		w := new(big.Int).Exp(z, h, n)
		w.Mul(w, p.sk.S)
		w.Mod(w, n)
		p.m.Exp(1)
		p.roster = roster
		p.r = r
		p.z = map[string]*big.Int{p.id: z}
		payload := wire.NewBuffer().PutString(p.id).PutBig(z).PutBig(w).Bytes()
		if err := net.Broadcast(p.id, MsgSSNRound1, payload); err != nil {
			return err
		}
	}
	// Ingest round 1: two exponentiations per peer for the implicit
	// authentication check.
	for _, p := range parts {
		msgs, err := net.RecvType(p.id, MsgSSNRound1)
		if err != nil {
			return err
		}
		for _, msg := range msgs {
			rd := wire.NewReader(msg.Payload)
			id := rd.String()
			z := rd.Big()
			w := rd.Big()
			if err := rd.Close(); err != nil {
				return fmt.Errorf("baseline: ssn round1 from %s: %w", msg.From, err)
			}
			if id != msg.From {
				return errors.New("baseline: ssn round1 identity mismatch")
			}
			h := hashx.ScalarDigest(hashx.TagTranscript, bound, []byte(id), z.Bytes())
			lhs := new(big.Int).Exp(w, e, n)
			p.m.Exp(1)
			he := new(big.Int).Mul(h, e)
			rhs := new(big.Int).Exp(z, he, n)
			p.m.Exp(1)
			rhs.Mul(rhs, hashx.IdentityDigest(id, n))
			rhs.Mod(rhs, n)
			if lhs.Cmp(rhs) != 0 {
				return fmt.Errorf("baseline: ssn implicit authentication of %s failed at %s", id, p.id)
			}
			p.z[id] = z
		}
		if len(p.z) != len(roster) {
			return fmt.Errorf("baseline: %s has %d of %d ssn round-1 values", p.id, len(p.z), len(roster))
		}
	}

	// Round 2: plain BD X values over Z_N^*.
	xsAll := make(map[string]map[string]*big.Int, len(parts))
	for _, p := range parts {
		idx := indexOf(roster, p.id)
		ringN := len(roster)
		x, err := bdkey.XValue(p.z[roster[(idx+1)%ringN]], p.z[roster[(idx-1+ringN)%ringN]], p.r, n)
		if err != nil {
			return err
		}
		p.m.Exp(1)
		xsAll[p.id] = map[string]*big.Int{p.id: x}
		payload := wire.NewBuffer().PutString(p.id).PutBig(x).Bytes()
		if err := net.Broadcast(p.id, MsgSSNRound2, payload); err != nil {
			return err
		}
	}
	for _, p := range parts {
		msgs, err := net.RecvType(p.id, MsgSSNRound2)
		if err != nil {
			return err
		}
		xs := xsAll[p.id]
		for _, msg := range msgs {
			rd := wire.NewReader(msg.Payload)
			id := rd.String()
			x := rd.Big()
			if err := rd.Close(); err != nil {
				return fmt.Errorf("baseline: ssn round2 from %s: %w", msg.From, err)
			}
			xs[id] = x
		}
		if len(xs) != len(roster) {
			return fmt.Errorf("baseline: %s has %d of %d ssn round-2 values", p.id, len(xs), len(roster))
		}
		ordered := make([]*big.Int, len(roster))
		for i, id := range roster {
			ordered[i] = xs[id]
		}
		if err := bdkey.CheckLemma1(ordered, n); err != nil {
			return err
		}
		idx := indexOf(roster, p.id)
		ringN := len(roster)
		key, err := bdkey.Key(idx, p.r, p.z[roster[(idx-1+ringN)%ringN]], ordered, n)
		if err != nil {
			return err
		}
		p.m.Exp(1)
		p.key = key
	}
	return nil
}

// Package experiments regenerates every table and figure of the paper's
// evaluation from instrumented protocol executions plus the validated
// analytic formulas. It is the engine behind cmd/gkabench and the
// repository-level benchmarks; each table prints its deltas against the
// published numbers (see docs/ARCHITECTURE.md#accounting-conventions).
package experiments

import (
	"crypto/rand"
	"fmt"
	"sort"
	"strings"

	"idgka/internal/analytic"
	"idgka/internal/baseline"
	"idgka/internal/core"
	"idgka/internal/ec"
	"idgka/internal/energy"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/pki"
	"idgka/internal/sigs/dsa"
)

// Env bundles the shared trust infrastructure for experiment runs.
type Env struct {
	Set *params.Set
	PKG *pki.PKG
	CAE *pki.CA // ECDSA certificate authority
	CAD *pki.CA // DSA certificate authority
}

// NewEnv builds a fresh environment on the embedded parameter set.
func NewEnv() (*Env, error) {
	set := params.Default()
	p, err := pki.NewPKG(rand.Reader, set)
	if err != nil {
		return nil, err
	}
	cae, err := pki.NewECDSACA(rand.Reader, "ca-ecdsa", ec.Secp160r1())
	if err != nil {
		return nil, err
	}
	cad, err := pki.NewDSACA(rand.Reader, "ca-dsa", set.Schnorr)
	if err != nil {
		return nil, err
	}
	return &Env{Set: set, PKG: p, CAE: cae, CAD: cad}, nil
}

// --- group builders -------------------------------------------------

// ProposedGroup wires n instrumented protocol machines onto a fresh network.
func (e *Env) ProposedGroup(n int) (*netsim.Network, []*engine.Machine, error) {
	return e.ProposedGroupCfg(n, false)
}

// ProposedGroupCfg is ProposedGroup with the StrictNonceRefresh option.
func (e *Env) ProposedGroupCfg(n int, strict bool) (*netsim.Network, []*engine.Machine, error) {
	net := netsim.New()
	cfg := engine.Config{Set: e.Set.Public(), StrictNonceRefresh: strict}
	members := make([]*engine.Machine, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("U%03d", i+1)
		sk, err := e.PKG.ExtractGQ(id)
		if err != nil {
			return nil, nil, err
		}
		m := meter.New()
		mb, err := engine.NewMachine(cfg, sk, m)
		if err != nil {
			return nil, nil, err
		}
		if err := net.Register(id, m); err != nil {
			return nil, nil, err
		}
		members[i] = mb
	}
	return net, members, nil
}

// NewProposedMember builds one more instrumented member (for joins).
func (e *Env) NewProposedMember(id string) (*engine.Machine, *meter.Meter, error) {
	sk, err := e.PKG.ExtractGQ(id)
	if err != nil {
		return nil, nil, err
	}
	m := meter.New()
	mb, err := engine.NewMachine(engine.Config{Set: e.Set.Public()}, sk, m)
	return mb, m, err
}

// BaselineGroup wires n instrumented baseline participants using the given
// authenticator scheme ("sok", "ecdsa", "dsa").
func (e *Env) BaselineGroup(scheme string, n int) (*netsim.Network, []*baseline.Participant, error) {
	net := netsim.New()
	parts := make([]*baseline.Participant, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("B%03d", i+1)
		var auth baseline.Authenticator
		switch scheme {
		case "sok":
			sk, err := e.PKG.ExtractSOK(id)
			if err != nil {
				return nil, nil, err
			}
			auth = baseline.NewSOKAuth(e.PKG.SOKParams(), sk)
		case "ecdsa":
			a, err := baseline.NewECDSAIdentity(rand.Reader, id, ec.Secp160r1(), e.CAE)
			if err != nil {
				return nil, nil, err
			}
			auth = a
		case "dsa":
			kp, err := dsa.GenerateKey(rand.Reader, e.Set.Schnorr)
			if err != nil {
				return nil, nil, err
			}
			a, err := baseline.NewDSAIdentity(rand.Reader, id, e.CAD, kp)
			if err != nil {
				return nil, nil, err
			}
			auth = a
		default:
			return nil, nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
		}
		m := meter.New()
		p, err := baseline.NewParticipant(id, e.Set.Public(), auth, m, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := net.Register(id, m); err != nil {
			return nil, nil, err
		}
		parts[i] = p
	}
	return net, parts, nil
}

// SSNGroup wires n instrumented SSN participants.
func (e *Env) SSNGroup(n int) (*netsim.Network, []*baseline.SSNParticipant, error) {
	net := netsim.New()
	parts := make([]*baseline.SSNParticipant, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("N%03d", i+1)
		sk, err := e.PKG.ExtractGQ(id)
		if err != nil {
			return nil, nil, err
		}
		m := meter.New()
		p, err := baseline.NewSSNParticipant(sk, m, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := net.Register(id, m); err != nil {
			return nil, nil, err
		}
		parts[i] = p
	}
	return net, parts, nil
}

// --- measured static runs -------------------------------------------

// MeasureStatic runs the given protocol at size n and returns the
// per-user report of a representative member (index 1: an ordinary,
// non-controller participant) plus the total message count on the medium.
func (e *Env) MeasureStatic(p analytic.Protocol, n int) (meter.Report, int, error) {
	switch p {
	case analytic.ProtoProposed:
		net, members, err := e.ProposedGroup(n)
		if err != nil {
			return meter.Report{}, 0, err
		}
		if err := core.RunInitial(net, members); err != nil {
			return meter.Report{}, 0, err
		}
		msgs, _ := net.Totals()
		return members[1].Meter().Report(), msgs, nil
	case analytic.ProtoSSN:
		net, parts, err := e.SSNGroup(n)
		if err != nil {
			return meter.Report{}, 0, err
		}
		if err := baseline.RunSSN(net, parts); err != nil {
			return meter.Report{}, 0, err
		}
		msgs, _ := net.Totals()
		return parts[1].Meter().Report(), msgs, nil
	default:
		scheme := map[analytic.Protocol]string{
			analytic.ProtoBDSOK:   "sok",
			analytic.ProtoBDECDSA: "ecdsa",
			analytic.ProtoBDDSA:   "dsa",
		}[p]
		if scheme == "" {
			return meter.Report{}, 0, fmt.Errorf("experiments: unknown protocol %q", p)
		}
		net, parts, err := e.BaselineGroup(scheme, n)
		if err != nil {
			return meter.Report{}, 0, err
		}
		if err := baseline.RunBD(net, parts); err != nil {
			return meter.Report{}, 0, err
		}
		msgs, _ := net.Totals()
		return parts[1].Meter().Report(), msgs, nil
	}
}

// --- rendering helpers ----------------------------------------------

// Table renders rows as a fixed-width ASCII table.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// fmtJ renders Joules compactly.
func fmtJ(j float64) string {
	switch {
	case j >= 1:
		return fmt.Sprintf("%.3f J", j)
	case j >= 0.001:
		return fmt.Sprintf("%.3f mJ*1000", j*1000)
	default:
		return fmt.Sprintf("%.3g J", j)
	}
}

// sortedSchemes lists map keys deterministically.
func sortedSchemes(m map[meter.Scheme]int) []meter.Scheme {
	out := make([]meter.Scheme, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var _ = energy.DefaultModel // referenced by sibling files

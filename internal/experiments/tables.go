package experiments

import (
	"fmt"
	"strings"

	"idgka/internal/analytic"
	"idgka/internal/energy"
	"idgka/internal/meter"
)

// Table1 regenerates the complexity comparison of the paper's Table 1 at
// group size n, from real instrumented executions. Each column reports the
// per-user counts of a representative (non-controller) member.
func (e *Env) Table1(n int) (string, error) {
	header := []string{"Operation", "Proposed", "BD+SOK", "BD+ECDSA", "BD+DSA", "SSN"}
	reports := map[analytic.Protocol]meter.Report{}
	for _, p := range analytic.AllProtocols() {
		r, _, err := e.MeasureStatic(p, n)
		if err != nil {
			return "", fmt.Errorf("table1 %s: %w", p, err)
		}
		reports[p] = r
	}
	get := func(f func(meter.Report) int) []string {
		out := make([]string, 0, 5)
		for _, p := range analytic.AllProtocols() {
			out = append(out, fmt.Sprintf("%d", f(reports[p])))
		}
		return out
	}
	rows := [][]string{
		append([]string{"Exp."}, get(func(r meter.Report) int { return r.Exp })...),
		append([]string{"Msg Tx"}, get(func(r meter.Report) int { return r.MsgTx })...),
		append([]string{"Msg Rx"}, get(func(r meter.Report) int { return r.MsgRx })...),
		append([]string{"Cert Tx"}, get(func(r meter.Report) int { return r.CertTx })...),
		append([]string{"Cert Rx"}, get(func(r meter.Report) int { return r.CertRx })...),
		append([]string{"Cert Ver"}, get(func(r meter.Report) int { return r.CertVer })...),
		append([]string{"MapToPoint"}, get(func(r meter.Report) int { return r.MapToPoint })...),
		append([]string{"Sign Gen"}, get(func(r meter.Report) int { return r.TotalSignGen() })...),
		append([]string{"Sign Ver"}, get(func(r meter.Report) int { return r.TotalSignVer() })...),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — per-user complexity, authenticated GKA, n = %d (measured)\n", n)
	b.WriteString(Table(header, rows))
	fmt.Fprintf(&b, "\nPaper deltas: SSN Exp published as 2n+4 = %d (reconstruction measures 2n+2 = %d); all other cells match the published formulas.\n",
		analytic.PaperExp(analytic.ProtoSSN, n), 2*n+2)
	return b.String(), nil
}

// Table2 regenerates the computational energy table from the extrapolation
// pipeline (equation 4).
func Table2() string {
	seeds := energy.PaperSeeds()
	rows := [][]string{}
	add := func(name string, p3 float64, published float64) {
		ms, mj := energy.Extrapolate(p3)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2f ms", p3),
			fmt.Sprintf("%.2f ms", ms),
			fmt.Sprintf("%.1f mJ", mj),
			fmt.Sprintf("%.1f mJ", published),
		})
	}
	add("Mod. Exp.", seeds.ModExp, 9.1)
	add("MapToPoint", seeds.MapToPoint, 18.4)
	add("Tate Pairing", seeds.TatePair, 47.0)
	add("Scalar Mul.", seeds.ScalarMul, 8.8)
	add("Sign Gen DSA", seeds.GenDSA, 9.1)
	add("Sign Gen ECDSA", seeds.GenECDSA, 8.8)
	add("Sign Gen SOK", seeds.GenSOK, 17.6)
	add("Sign Gen GQ", seeds.GenGQ, 18.2)
	add("Sign Ver DSA", seeds.VerDSA, 11.1)
	add("Sign Ver ECDSA", seeds.VerECDSA, 10.9)
	add("Sign Ver SOK", seeds.VerSOK, 137.7)
	add("Sign Ver GQ", seeds.VerGQ, 18.2)
	return "Table 2 — computational energy, 133MHz StrongARM (extrapolated per eq. 4)\n" +
		Table([]string{"Operation", "P3-450", "StrongARM", "Energy", "Paper"}, rows)
}

// Table3 regenerates the communication energy costs for both radios.
func Table3() string {
	r100 := energy.Radio100kbps()
	wlan := energy.WLANCard()
	item := func(name string, bytes int) []string {
		bits := float64(bytes) * 8
		return []string{
			name,
			fmt.Sprintf("%.2f mJ", bits*r100.TxMJBit),
			fmt.Sprintf("%.2f mJ", bits*r100.RxMJBit),
			fmt.Sprintf("%.2f mJ", bits*wlan.TxMJBit),
			fmt.Sprintf("%.2f mJ", bits*wlan.RxMJBit),
		}
	}
	rows := [][]string{
		item("263-byte DSA certificate", 263),
		item("86-byte ECDSA certificate", 86),
		item("DSA/ECDSA signature (320 bit)", 40),
		item("SOK signature (2×194 bit)", 49),
		item("GQ signature (1184 bit)", 148),
	}
	return "Table 3 — per-item radio energy (Tx/Rx at 100kbps and WLAN)\n" +
		Table([]string{"Item", "100k Tx", "100k Rx", "WLAN Tx", "WLAN Rx"}, rows)
}

// Figure1 regenerates the total per-node energy comparison: five protocols
// × two radios × the paper's group sizes. Counters for n ≤ measuredMax are
// measured from real executions; larger n uses the analytic formulas that
// the measured points validate (see
// docs/ARCHITECTURE.md#accounting-conventions).
func (e *Env) Figure1(measuredMax int) (string, error) {
	cpu := energy.StrongARM()
	radios := []energy.RadioProfile{energy.Radio100kbps(), energy.WLANCard()}
	var b strings.Builder
	b.WriteString("Figure 1 — total energy per node (J), log-scale in the paper\n")
	for _, radio := range radios {
		header := []string{"Protocol \\ n"}
		for _, n := range analytic.FigureNs {
			header = append(header, fmt.Sprintf("%d", n))
		}
		var rows [][]string
		for _, p := range analytic.AllProtocols() {
			model := energy.Model{CPU: cpu, Radio: radio, CertVerifyAs: certSchemeFor(p)}
			row := []string{string(p)}
			for _, n := range analytic.FigureNs {
				var rep meter.Report
				if n <= measuredMax {
					var err error
					rep, _, err = e.MeasureStatic(p, n)
					if err != nil {
						return "", fmt.Errorf("figure1 %s n=%d: %w", p, n, err)
					}
				} else {
					rep = analytic.StaticReport(p, n)
				}
				row = append(row, fmt.Sprintf("%.4g", model.EnergyJ(rep)))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(&b, "\n[%s]\n", radio.Name)
		b.WriteString(Table(header, rows))
	}
	fmt.Fprintf(&b, "\n(n ≤ %d measured from instrumented runs; larger n from validated formulas)\n", measuredMax)
	return b.String(), nil
}

// certSchemeFor picks how certificate verifications are priced per
// protocol.
func certSchemeFor(p analytic.Protocol) meter.Scheme {
	if p == analytic.ProtoBDDSA {
		return meter.SchemeDSA
	}
	return meter.SchemeECDSA
}

// Figure1Winner returns the protocol with the lowest energy at a given n
// and radio — used by tests asserting the paper's headline claim.
func Figure1Winner(n int, radio energy.RadioProfile) analytic.Protocol {
	cpu := energy.StrongARM()
	best := analytic.Protocol("")
	bestJ := 0.0
	for _, p := range analytic.AllProtocols() {
		model := energy.Model{CPU: cpu, Radio: radio, CertVerifyAs: certSchemeFor(p)}
		j := model.EnergyJ(analytic.StaticReport(p, n))
		if best == "" || j < bestJ {
			best, bestJ = p, j
		}
	}
	return best
}

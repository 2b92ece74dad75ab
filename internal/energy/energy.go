// Package energy implements the paper's evaluation methodology (Section 6):
// per-operation energy costs for the 133 MHz StrongARM SA-1110 derived from
// Pentium III-450 MIRACL timings via the extrapolation rule of equation
// (4), per-bit radio costs for the two transceivers of Table 3, and an
// accounting model that prices a meter.Report — the operation counters of
// an actual protocol execution — in Joules.
//
// The paper never runs on hardware; it multiplies operation counts by these
// published constants. This package reproduces that pipeline exactly, with
// the counts coming from instrumented executions instead of hand counting.
package energy

import (
	"fmt"

	"idgka/internal/meter"
)

// StrongARMPowerMW is the SA-1110 active power draw from Carman et al.
// [3]: 240 mW.
const StrongARMPowerMW = 240.0

// P3ModExpMs is the MIRACL 1024-bit modular exponentiation time on the
// Pentium III 450 MHz, the anchor of the extrapolation (8.8 ms).
const P3ModExpMs = 8.8

// StrongARMModExpMJ is the measured StrongARM modular exponentiation energy
// from [3] (9.1 mJ), giving the 37.92 ms anchor timing.
const StrongARMModExpMJ = 9.1

// strongARMModExpMs = 9.1 mJ / 240 mW.
const strongARMModExpMs = StrongARMModExpMJ / StrongARMPowerMW * 1000

// Extrapolate applies equation (4): given an operation's time on the
// P3-450 (ms), return its estimated StrongARM time (ms) and energy (mJ).
func Extrapolate(p3Ms float64) (armMs, mJ float64) {
	armMs = p3Ms / P3ModExpMs * strongARMModExpMs
	mJ = StrongARMPowerMW * armMs / 1000
	return armMs, mJ
}

// P3Seeds are the Pentium III-450 timings (ms) the paper extrapolates
// from: MIRACL measurements [11], with the Tate pairing and MapToPoint
// scaled down from P3-1GHz figures by 1000/450 = 2.22 as in the text.
type P3Seeds struct {
	ModExp     float64
	MapToPoint float64
	TatePair   float64
	ScalarMul  float64
	GenDSA     float64
	GenECDSA   float64
	GenSOK     float64
	GenGQ      float64
	VerDSA     float64
	VerECDSA   float64
	VerSOK     float64
	VerGQ      float64
}

// PaperSeeds returns the seed timings used in Table 2.
func PaperSeeds() P3Seeds {
	return P3Seeds{
		ModExp:     8.8,
		MapToPoint: 17.78, // (35 - 27) ms on P3-1GHz / 2.22... ×... see §6
		TatePair:   44.4,  // 20 ms on P3-1GHz × 2.22
		ScalarMul:  8.5,
		GenDSA:     8.8,
		GenECDSA:   8.5,
		GenSOK:     17.0,
		GenGQ:      17.6,
		VerDSA:     10.75,
		VerECDSA:   10.5,
		VerSOK:     133.2, // 3 Tate pairings
		VerGQ:      17.6,
	}
}

// CPUProfile carries per-operation energies in millijoules.
type CPUProfile struct {
	Name      string
	ModExpMJ  float64
	MapToPtMJ float64
	PairingMJ float64
	ScalarMJ  float64
	SignGenMJ map[meter.Scheme]float64
	SignVerMJ map[meter.Scheme]float64
	SymOpMJ   float64 // per symmetric encryption/decryption
}

// StrongARM builds the paper's Table 2 profile by running the
// extrapolation pipeline over the published seeds. The symmetric-operation
// cost is this repository's documented estimate (the paper only says it is
// "orders of magnitude lower" than an exponentiation, citing [3][6]).
func StrongARM() *CPUProfile {
	s := PaperSeeds()
	mj := func(p3 float64) float64 {
		_, v := Extrapolate(p3)
		return v
	}
	return &CPUProfile{
		Name:      "133MHz StrongARM SA-1110",
		ModExpMJ:  mj(s.ModExp),
		MapToPtMJ: mj(s.MapToPoint),
		PairingMJ: mj(s.TatePair),
		ScalarMJ:  mj(s.ScalarMul),
		SignGenMJ: map[meter.Scheme]float64{
			meter.SchemeDSA:   mj(s.GenDSA),
			meter.SchemeECDSA: mj(s.GenECDSA),
			meter.SchemeSOK:   mj(s.GenSOK),
			meter.SchemeGQ:    mj(s.GenGQ),
		},
		SignVerMJ: map[meter.Scheme]float64{
			meter.SchemeDSA:   mj(s.VerDSA),
			meter.SchemeECDSA: mj(s.VerECDSA),
			meter.SchemeSOK:   mj(s.VerSOK),
			meter.SchemeGQ:    mj(s.VerGQ),
		},
		SymOpMJ: 0.02,
	}
}

// RadioProfile carries per-bit transmission/reception energies in
// millijoules (Table 3).
type RadioProfile struct {
	Name    string
	TxMJBit float64
	RxMJBit float64
}

// Radio100kbps is the sensor-class 100 kbps transceiver of [3][6]:
// 10.8 µJ/bit transmit, 7.51 µJ/bit receive.
func Radio100kbps() RadioProfile {
	return RadioProfile{Name: "100kbps transceiver", TxMJBit: 0.0108, RxMJBit: 0.00751}
}

// WLANCard is the IEEE 802.11 Spectrum24 LA-4121 card of [8]:
// 0.66 µJ/bit transmit, 0.31 µJ/bit receive.
func WLANCard() RadioProfile {
	return RadioProfile{Name: "Spectrum24 WLAN card", TxMJBit: 0.00066, RxMJBit: 0.00031}
}

// Model prices operation reports.
type Model struct {
	CPU   *CPUProfile
	Radio RadioProfile
	// CertVerifyAs selects the signature scheme a certificate verification
	// is priced as (the certificate's own scheme). Defaults to ECDSA.
	CertVerifyAs meter.Scheme
	// IncludeStateBytes charges state-transfer traffic (joiner/merge table
	// shipping) to the radio as well. Off by default so results stay
	// comparable to the paper's accounting (see
	// docs/ARCHITECTURE.md#accounting-conventions).
	IncludeStateBytes bool
}

// DefaultModel is StrongARM + WLAN, the combination of the paper's
// Table 5.
func DefaultModel() Model {
	return Model{CPU: StrongARM(), Radio: WLANCard(), CertVerifyAs: meter.SchemeECDSA}
}

// ComputeMJ prices the computational part of a report in millijoules.
func (m Model) ComputeMJ(r meter.Report) float64 {
	certScheme := m.CertVerifyAs
	if certScheme == "" {
		certScheme = meter.SchemeECDSA
	}
	total := float64(r.Exp) * m.CPU.ModExpMJ
	for s, n := range r.SignGen {
		total += float64(n) * m.CPU.SignGenMJ[s]
	}
	for s, n := range r.SignVer {
		total += float64(n) * m.CPU.SignVerMJ[s]
	}
	total += float64(r.CertVer) * m.CPU.SignVerMJ[certScheme]
	total += float64(r.MapToPoint) * m.CPU.MapToPtMJ
	total += float64(r.Pairing) * m.CPU.PairingMJ
	total += float64(r.SymEnc+r.SymDec) * m.CPU.SymOpMJ
	return total
}

// CommMJ prices the radio part of a report in millijoules.
func (m Model) CommMJ(r meter.Report) float64 {
	tx := float64(r.BytesTx)
	rx := float64(r.BytesRx)
	if m.IncludeStateBytes {
		tx += float64(r.StateTx)
		rx += float64(r.StateRx)
	}
	return tx*8*m.Radio.TxMJBit + rx*8*m.Radio.RxMJBit
}

// EnergyJ prices a full report in Joules.
func (m Model) EnergyJ(r meter.Report) float64 {
	return (m.ComputeMJ(r) + m.CommMJ(r)) / 1000
}

// String renders the model configuration.
func (m Model) String() string {
	return fmt.Sprintf("%s + %s", m.CPU.Name, m.Radio.Name)
}

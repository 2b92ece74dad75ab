// Package analytic provides closed-form operation counts for every
// protocol in the repository — the formulas behind the paper's Tables 1
// and 4 — plus nominal message sizes, so large-n points (Figure 1's
// n = 500) can be priced without executing half a million signature
// verifications. Tests cross-validate these formulas against meters from
// real executions at small n, which is what licenses the extrapolation.
package analytic

import (
	"fmt"

	"idgka/internal/meter"
)

// Protocol identifies one of the five compared static GKA protocols.
type Protocol string

// The five columns of Table 1.
const (
	ProtoProposed Protocol = "proposed" // BD + GQ batch verification
	ProtoBDSOK    Protocol = "bd-sok"   // BD + SOK (ID-based, pairing)
	ProtoBDECDSA  Protocol = "bd-ecdsa" // BD + 160-bit ECDSA (certs)
	ProtoBDDSA    Protocol = "bd-dsa"   // BD + 1024-bit DSA (certs)
	ProtoSSN      Protocol = "ssn"      // Saeednia-Safavi-Naini
)

// AllProtocols lists the Table 1 columns in presentation order.
func AllProtocols() []Protocol {
	return []Protocol{ProtoProposed, ProtoBDSOK, ProtoBDECDSA, ProtoBDDSA, ProtoSSN}
}

// Wire-size constants (bytes) reflecting this repository's actual
// encodings: every field carries a 4-byte length prefix; identities are 4
// bytes; group elements 128 bytes (1024-bit); GQ responses 128 bytes;
// ECDSA/DSA signatures 42/40 bytes; SOK signatures two uncompressed
// 512-bit points (256 bytes); certificates measured from internal/pki.
const (
	idLen        = 4
	groupElemLen = 128
	frame        = 4

	field        = frame + groupElemLen // one framed group element
	fieldID      = frame + idLen
	sigECDSALen  = 42
	sigDSALen    = 40
	sigSOKLen    = 256
	certECDSALen = 112 // compact ECDSA certificate (paper nominal: 86)
	certDSALen   = 236 // compact DSA certificate (paper nominal: 263)
)

// StaticReport returns the expected per-user meter.Report for one run of
// the given static GKA protocol at group size n, matching what an
// instrumented execution of this repository produces (tests enforce the
// match). Byte counts use the nominal sizes above.
func StaticReport(p Protocol, n int) meter.Report {
	r := meter.NewReport()
	r.MsgTx = 2
	r.MsgRx = 2 * (n - 1)
	switch p {
	case ProtoProposed:
		r.Exp = 3
		r.SignGen[meter.SchemeGQ] = 1
		r.SignVer[meter.SchemeGQ] = 1 // one batch verification
		tx := (fieldID + 2*field) + (fieldID + 2*field)
		r.BytesTx = int64(tx)
		r.BytesRx = int64((n - 1) * tx)
	case ProtoBDSOK:
		r.Exp = 3
		r.SignGen[meter.SchemeSOK] = 1
		r.SignVer[meter.SchemeSOK] = n - 1
		r.MapToPoint = n - 1
		tx := (fieldID + field + frame) + (fieldID + field + frame + sigSOKLen)
		r.BytesTx = int64(tx)
		r.BytesRx = int64((n - 1) * tx)
	case ProtoBDECDSA:
		r.Exp = 3
		r.SignGen[meter.SchemeECDSA] = 1
		r.SignVer[meter.SchemeECDSA] = n - 1
		r.CertTx = 1
		r.CertRx = n - 1
		r.CertVer = n - 1
		tx := (fieldID + field + frame + certECDSALen) + (fieldID + field + frame + sigECDSALen)
		r.BytesTx = int64(tx)
		r.BytesRx = int64((n - 1) * tx)
	case ProtoBDDSA:
		r.Exp = 3
		r.SignGen[meter.SchemeDSA] = 1
		r.SignVer[meter.SchemeDSA] = n - 1
		r.CertTx = 1
		r.CertRx = n - 1
		r.CertVer = n - 1
		tx := (fieldID + field + frame + certDSALen) + (fieldID + field + frame + sigDSALen)
		r.BytesTx = int64(tx)
		r.BytesRx = int64((n - 1) * tx)
	case ProtoSSN:
		// Reconstruction: 2n+2 exponentiations per user (the paper charges
		// 2n+4; see docs/ARCHITECTURE.md#accounting-conventions).
		r.Exp = 2*n + 2
		tx := (fieldID + 2*field) + (fieldID + field)
		r.BytesTx = int64(tx)
		r.BytesRx = int64((n - 1) * tx)
	default:
		panic(fmt.Sprintf("analytic: unknown protocol %q", p))
	}
	return r
}

// PaperExp returns the paper's published per-user exponentiation count for
// Table 1 (identical to ours except the SSN column).
func PaperExp(p Protocol, n int) int {
	if p == ProtoSSN {
		return 2*n + 4
	}
	return 3
}

// Table4Paper holds the paper's published totals for the dynamic protocol
// comparison (communication totals and note-worthy per-user costs).
type Table4Paper struct {
	Protocol string
	Event    string
	Rounds   int
	Messages string // symbolic, e.g. "2n+2"
	MsgCount int    // evaluated at the reference parameters
	Notes    string
}

// PaperTable4 returns the published Table 4 rows evaluated at current
// group size n, merging users m, leaving users ld, odd survivors v and
// merging groups k.
func PaperTable4(n, m, ld, v, k int) []Table4Paper {
	return []Table4Paper{
		{"BD re-run", "Join", 2, "2n+2", 2*n + 2, "all users: 3 exps"},
		{"BD re-run", "Leave", 2, "2n-2", 2*n - 2, "all users: 3 exps"},
		{"BD re-run", "Merge", 2, "2n+2m", 2*n + 2*m, "all users: 3 exps"},
		{"BD re-run", "Partition", 2, "2n-2ld", 2*n - 2*ld, "all users: 3 exps"},
		{"Proposed", "Join", 3, "5", 5, "U1, Un+1: 2 exps each (measured: 4 msgs)"},
		{"Proposed", "Leave", 2, "v+n-2", v + n - 2, "odd: 3 exps, even: 2 (measured: v+n-1 msgs)"},
		{"Proposed", "Merge", 3, "6(k-1)", 6 * (k - 1), "U1, Un+1: 4 exps each"},
		{"Proposed", "Partition", 2, "v+n-2ld", v + n - 2*ld, "odd: 3, even: 2 (measured: v+n-ld msgs)"},
	}
}

// FigureNs are the group sizes of Figure 1.
var FigureNs = []int{10, 50, 100, 500}

// Table5Params are the reference parameters of Table 5: n = 100 current
// members, m = 20 merging users, ld = 20 leaving users.
type Table5Params struct {
	N, M, Ld int
}

// DefaultTable5Params returns the paper's Table 5 setting.
func DefaultTable5Params() Table5Params { return Table5Params{N: 100, M: 20, Ld: 20} }

// PaperTable5J holds the paper's published Table 5 energies (Joules) for
// comparison printing, keyed by "<protocol>/<event>/<role>".
var PaperTable5J = map[string]float64{
	"bd/join/members":         1.234,
	"bd/join/joiner":          2.31,
	"proposed/join/U1":        0.039,
	"proposed/join/Un":        0.049,
	"proposed/join/joiner":    0.057,
	"proposed/join/others":    0.00134,
	"bd/leave/members":        1.179,
	"proposed/leave/odd":      0.160,
	"proposed/leave/even":     0.150,
	"bd/merge/groupA":         1.660,
	"bd/merge/groupB":         2.532,
	"proposed/merge/U1":       0.079,
	"proposed/merge/Un1":      0.079,
	"proposed/merge/others":   0.000986,
	"bd/partition/members":    0.942,
	"proposed/partition/odd":  0.142,
	"proposed/partition/even": 0.132,
}

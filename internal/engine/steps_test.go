package engine

import (
	"math/big"
	"testing"

	"idgka/internal/params"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// TestIngestStateTablesRange: a state-table entry whose z is not below p,
// or whose t is not below N, fails the ingestion retryably; a zero value
// marks an absent entry and an entry the group already holds is kept.
func TestIngestStateTablesRange(t *testing.T) {
	set := params.Default()
	sk, err := gq.Extract(set.RSA, "tables-01")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMachine(Config{Set: set.Public()}, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, n, zero, two, three := set.Schnorr.P, set.RSA.N, new(big.Int), big.NewInt(2), big.NewInt(3)
	block := func(id string, z, t *big.Int) []byte {
		return wire.NewBuffer().PutUint(1).PutString(id).PutBig(z).PutBig(t).Bytes()
	}
	for _, tc := range []struct {
		name string
		z, t *big.Int
	}{{"z=p", p, two}, {"t=N", two, n}} {
		if err := mc.ingestStateTables(NewGroup([]string{"A01"}), block("A01", tc.z, tc.t)); !IsRetryable(err) {
			t.Errorf("%s: got %v, want a retryable error", tc.name, err)
		}
	}

	g := NewGroup([]string{"A01", "A02"})
	g.Z["A01"] = three
	if err := mc.ingestStateTables(g, block("A01", two, zero)); err != nil {
		t.Fatal(err)
	}
	if g.Z["A01"] != three || g.T["A01"] != nil {
		t.Fatalf("existing z or absent t overwritten: z %v t %v", g.Z["A01"], g.T["A01"])
	}
	if err := mc.ingestStateTables(g, block("A02", two, three)); err != nil {
		t.Fatal(err)
	}
	if g.Z["A02"].Cmp(two) != 0 || g.T["A02"].Cmp(three) != 0 {
		t.Fatalf("A02 not recorded: z %v t %v", g.Z["A02"], g.T["A02"])
	}
}

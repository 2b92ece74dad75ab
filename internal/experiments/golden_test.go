package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// renderTables renders Tables 1–4 at small sizes. Their cells are
// operation counts and byte sizes, so they must not move with the crypto
// backend or a refactor of the substrate. Table 5 and Figure 1 are left
// out: their energies carry measured noise.
func renderTables(t *testing.T) string {
	t.Helper()
	e := testEnvE(t)
	t1, err := e.Table1(6)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := e.Table4(6, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return t1 + "\n" + Table2() + "\n" + Table3() + "\n" + t4
}

// TestTablesGolden pins Tables 1–4 to testdata/tables.golden.
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTables(t); got != string(want) {
		t.Errorf("Tables 1–4 differ from testdata/tables.golden:\n%s", got)
	}
}

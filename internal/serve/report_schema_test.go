package serve

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// backtickedName matches one `snake_case` token, as used for field names
// in the docs/PERFORMANCE.md schema tables.
var backtickedName = regexp.MustCompile("`([a-z0-9_]+)`")

// performanceSection returns the body of one "## title" section of
// docs/PERFORMANCE.md.
func performanceSection(t *testing.T, title string) string {
	t.Helper()
	raw, err := os.ReadFile("../../docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range strings.Split(string(raw), "\n## ") {
		if strings.HasPrefix(sec, title) {
			return sec
		}
	}
	t.Fatalf("docs/PERFORMANCE.md has no %q section", title)
	return ""
}

// tableFieldNames extracts the backticked field names from the FIRST
// column of every markdown table row in a section (the schema tables
// document one JSON field per row; a combined row like "`p50_ms`,
// `p99_ms`" yields both).
func tableFieldNames(sec string) map[string]bool {
	fields := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 2 {
			continue
		}
		for _, m := range backtickedName.FindAllStringSubmatch(cells[1], -1) {
			fields[m[1]] = true
		}
	}
	return fields
}

// jsonTags returns the JSON field names a struct type emits.
func jsonTags(t *testing.T, v any) []string {
	t.Helper()
	rt := reflect.TypeOf(v)
	tags := make([]string, 0, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Fatalf("%s.%s has no json tag", rt.Name(), rt.Field(i).Name)
		}
		tags = append(tags, strings.Split(tag, ",")[0])
	}
	return tags
}

// TestReportSchemasMatchPerformanceDoc is the docs meta-test for the
// machine-readable soak report: every JSON field SoakReport (SOAK_*.json)
// emits must be documented in the docs/PERFORMANCE.md schema table, and
// the table must not document fields the code no longer emits.
func TestReportSchemasMatchPerformanceDoc(t *testing.T) {
	const section = "Soak reports"
	soak := performanceSection(t, section)
	documented := tableFieldNames(soak)
	if len(documented) == 0 {
		t.Fatalf("no schema table found under %q", section)
	}
	for _, tag := range jsonTags(t, SoakReport{}) {
		if !documented[tag] {
			t.Errorf("SoakReport emits %q but the %q table does not document it", tag, section)
		}
		delete(documented, tag)
	}
	for name := range documented {
		t.Errorf("the %q table documents %q but SoakReport does not emit it", section, name)
	}

	// The per-class breakdown is documented inline in the `ops` row
	// rather than as its own table; every SoakOpStat field must still be
	// named there.
	for _, tag := range jsonTags(t, SoakOpStat{}) {
		if !strings.Contains(soak, "`"+tag+"`") {
			t.Errorf("SoakOpStat emits %q but the soak section never names it", tag)
		}
	}
}

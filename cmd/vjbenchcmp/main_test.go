package main

import (
	"reflect"
	"testing"
)

func loadRows(t *testing.T, path string) []benchRow {
	t.Helper()
	schema, buf, err := readSchema(path)
	if err != nil {
		t.Fatal(err)
	}
	if schema != benchSchema {
		t.Fatalf("%s: schema %q", path, schema)
	}
	var m benchManifest
	mustUnmarshal(buf, &m)
	return m.Rows
}

// TestCounterGate pins the exact-counter rule on two small manifests: a
// changed match count fails everywhere, a changed cost counter fails
// except on a partitioned first-k row, and rows present in only one
// manifest are not compared.
func TestCounterGate(t *testing.T) {
	old := loadRows(t, "testdata/counters_old.json")
	neu := loadRows(t, "testdata/counters_new.json")
	got := counterChanges(old, neu)
	want := []string{
		"fig5a|xmark|Q2|VJ+LEp||: matches 7 -> 8",
		"fig5a|xmark|Q2|VJ+LEp||: derefs 0 -> 1",
		"firstk|xmark-x2|Q14|VJ+LEp|K=4|full: scanned 3000 -> 3001",
		"firstk|xmark-x2|Q14|VJ+LEp|K=1|k=20: pagesRead 10 -> 11",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counterChanges =\n%q\nwant\n%q", got, want)
	}
	if got := counterChanges(old, old); len(got) != 0 {
		t.Fatalf("identical manifests report changes: %q", got)
	}
}

// TestScheduledRows pins which rows are exempt from the cost-counter gate.
func TestScheduledRows(t *testing.T) {
	for _, tc := range []struct {
		variant, series string
		want            bool
	}{
		{"K=4", "k=1", true},
		{"K=4", "k=1000", true},
		{"K=2", "k=20", true},
		{"K=4", "full", false},
		{"K=1", "k=20", false},
		{"", "", false},
		{"threshold", "k=20", false},
	} {
		r := benchRow{Variant: tc.variant, Series: tc.series}
		if got := r.scheduled(); got != tc.want {
			t.Errorf("variant %q series %q: scheduled = %v, want %v", tc.variant, tc.series, got, tc.want)
		}
	}
}

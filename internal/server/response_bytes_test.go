package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"viewjoin"
)

// TestPageResponseBytes pins the exact bytes a page's rows and cursor
// encode to: the handler writes result rows to JSON as they come out of
// the run, so the wire format of a row is the row type's own encoding and
// must not drift.
func TestPageResponseBytes(t *testing.T) {
	s := New(Config{})
	d, err := viewjoin.ParseDocumentString(`<a><f/><b><e/><e/></b><b><c/><e/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument("doc", d); err != nil {
		t.Fatal(err)
	}
	views, err := viewjoin.ParseViews("//a//e; //b")
	if err != nil {
		t.Fatal(err)
	}
	mviews, err := d.MaterializeViews(views, viewjoin.SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range mviews {
		if err := s.AddView("doc", mv); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(queryRequest{Document: "doc", Query: "//a//b//e", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	const wantMatches = `[[{"tag":"a","start":1,"end":16,"level":0},{"tag":"b","start":4,"end":9,"level":1},{"tag":"e","start":5,"end":6,"level":2}],` +
		`[{"tag":"a","start":1,"end":16,"level":0},{"tag":"b","start":4,"end":9,"level":1},{"tag":"e","start":7,"end":8,"level":2}]]`
	if got := string(fields["matches"]); got != wantMatches {
		t.Errorf("matches encode to\n%s\nwant\n%s", got, wantMatches)
	}
	const wantCursor = `"AAAAAAAAAAABAAAABAAAAAcAAAA"`
	if got := string(fields["cursor"]); got != wantCursor {
		t.Errorf("cursor encodes to %s, want %s", got, wantCursor)
	}
}

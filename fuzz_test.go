package viewjoin

import (
	"context"
	"fmt"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
)

// FuzzEvaluateDifferential is the repository's differential fuzzer: the
// fuzz bytes deterministically drive testutil's generators (via
// testutil.ByteSource) to produce a random document, a random TPQ, and a
// random covering view partition, and every applicable engine/scheme pair
// is then required to agree exactly with the brute-force oracle. Any
// divergence or panic is a bug in one of the engines, the view
// segmentation, or the storage layer; the corpus under
// testdata/fuzz/FuzzEvaluateDifferential pins previously-interesting
// generator inputs.
func FuzzEvaluateDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("viewjoin"))
	f.Add([]byte{0x00, 0xff, 0x10, 0x20, 0x42, 0x99, 0x7f, 0x01, 0xee, 0x31})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := testutil.NewByteRand(data)
		doc := newDocument(testutil.RandomDoc(rng, 60, nil))
		pat := testutil.RandomPattern(rng, 4, nil)
		q := &Query{pat}
		want := EvaluateDirect(doc, q)

		partitions := [][]*tpq.Pattern{
			testutil.RandomViewPartition(rng, pat),
			testutil.SingletonViews(pat),
			testutil.WholeQueryView(pat),
		}
		// Partition target and page bounds for the run matrix, drawn after
		// every other generator so existing corpus entries keep their
		// doc/query/views.
		k := 2 + rng.Intn(3)
		pageLim := 1 + rng.Intn(4)
		pageOff := rng.Intn(3)
		ks := []int{1, 2, 4}
		if k == 3 {
			ks = append(ks, k)
		}
		pages := [][2]int{{pageLim, pageOff}}
		for pi, part := range partitions {
			views := make([]*Query, len(part))
			for i, vp := range part {
				views[i] = &Query{vp}
			}
			for _, scheme := range []StorageScheme{SchemeElement, SchemeLEp} {
				mv, err := doc.MaterializeViews(views, scheme)
				if err != nil {
					t.Fatalf("partition %d scheme %v: materialize: %v", pi, scheme, err)
				}
				engines := []Engine{EngineViewJoin, EngineTwigStack}
				if q.IsPath() {
					engines = append(engines, EnginePathStack)
				}
				for _, eng := range engines {
					res, err := Evaluate(doc, q, mv, eng, nil)
					if err != nil {
						t.Fatalf("partition %d %v+%v: %v", pi, eng, scheme, err)
					}
					if !sameMatches(res, want) {
						t.Fatalf("partition %d %v+%v: %d matches, oracle %d (q=%s)",
							pi, eng, scheme, len(res.Matches), len(want.Matches), q)
					}
					p, err := Prepare(doc, q, mv, eng, nil)
					if err != nil {
						t.Fatalf("partition %d %v+%v: prepare: %v", pi, eng, scheme, err)
					}
					checkRunMatrix(t, fmt.Sprintf("partition %d %v+%v", pi, eng, scheme), p, res, ks, pages)
				}
			}
			if q.IsPath() {
				tv, err := doc.MaterializeViews(views, SchemeTuple)
				if err != nil {
					t.Fatalf("partition %d tuple: materialize: %v", pi, err)
				}
				res, err := Evaluate(doc, q, tv, EngineInterJoin, nil)
				if err != nil {
					t.Fatalf("partition %d IJ: %v", pi, err)
				}
				if !sameMatches(res, want) {
					t.Fatalf("partition %d IJ: %d matches, oracle %d (q=%s)",
						pi, len(res.Matches), len(want.Matches), q)
				}
				p, err := Prepare(doc, q, tv, EngineInterJoin, nil)
				if err != nil {
					t.Fatalf("partition %d IJ: prepare: %v", pi, err)
				}
				checkRunMatrix(t, fmt.Sprintf("partition %d IJ", pi), p, res, ks, pages)
			}
		}

		// The no-view baseline must agree too (general-query entry point),
		// in full and paged, sequentially and partitioned.
		for _, par := range ks {
			for _, pg := range [][2]int{{0, 0}, {pageLim, pageOff}} {
				opts := &EvalOptions{Limit: pg[0], Offset: pg[1], Parallelism: par}
				res, err := EvaluateWithoutViews(doc, q, EngineTwigStack, opts)
				if err != nil {
					t.Fatalf("EvaluateWithoutViews TS %+v: %v", *opts, err)
				}
				if page := pageOf(want.Matches, pg[0], pg[1]); !samePage(res.Matches, page) {
					t.Fatalf("EvaluateWithoutViews TS %+v: %d matches, oracle page %d (q=%s)",
						*opts, len(res.Matches), len(page), q)
				}
			}
		}
	})
}

// checkRunMatrix runs p under one matrix over RunOptions — Parallel ∈ ks ×
// {unbounded, each {limit, offset} of pages, each page resumed through an
// After cursor instead of an offset} × {materialized, Yield taking every
// row, Yield stopping after the first} — and requires every cell to
// reproduce exactly the document-order slice of full, the plan's
// sequential result (itself oracle-checked by the caller).
func checkRunMatrix(t *testing.T, label string, p *PreparedQuery, full *Result, ks []int, pages [][2]int) {
	t.Helper()
	type cell struct {
		ro   RunOptions
		want [][]Node
	}
	cells := []cell{{RunOptions{}, full.Matches}}
	for _, pg := range pages {
		lim, off := pg[0], pg[1]
		want := pageOf(full.Matches, lim, off)
		cells = append(cells, cell{RunOptions{Limit: lim, Offset: off}, want})
		if off > 0 && off <= len(full.Matches) {
			after := make([]int32, len(full.Matches[off-1]))
			for i, n := range full.Matches[off-1] {
				after[i] = n.Start
			}
			cells = append(cells, cell{RunOptions{Limit: lim, After: after}, want})
		}
	}
	for _, k := range ks {
		for _, c := range cells {
			ro := c.ro
			ro.Parallel = k
			name := fmt.Sprintf("%s par=%d limit=%d offset=%d after=%v", label, k, ro.Limit, ro.Offset, ro.After)
			res, err := p.RunWith(context.Background(), ro)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !samePage(res.Matches, c.want) {
				t.Fatalf("%s: %d rows, want the %d-row document-order slice", name, len(res.Matches), len(c.want))
			}
			if parts := res.Stats.Partitions; parts < 1 || k == 1 && parts != 1 {
				t.Fatalf("%s: %d partitions", name, parts)
			}
			for _, stopAfter := range []int{-1, 1} {
				var rows [][]Node
				ro.Yield = func(row []Node) bool {
					// The yield row is scratch reused between calls; keep a copy.
					rows = append(rows, append([]Node(nil), row...))
					return len(rows) != stopAfter
				}
				res, err := p.RunWith(context.Background(), ro)
				if err != nil {
					t.Fatalf("%s yield: %v", name, err)
				}
				want := c.want
				if stopAfter > 0 {
					want = want[:min(stopAfter, len(want))]
				}
				if !samePage(rows, want) || len(res.Matches) != 0 {
					t.Fatalf("%s yield stopping after %d: %d rows (%d materialized), want %d",
						name, stopAfter, len(rows), len(res.Matches), len(want))
				}
			}
		}
	}
}

// pageOf is the document-order slice [off:off+lim] of rows; lim 0 is
// unbounded.
func pageOf(rows [][]Node, lim, off int) [][]Node {
	rows = rows[min(off, len(rows)):]
	if lim > 0 {
		rows = rows[:min(lim, len(rows))]
	}
	return rows
}

// samePage is identicalMatches over bare row slices.
func samePage(got, want [][]Node) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

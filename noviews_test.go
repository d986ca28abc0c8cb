package viewjoin

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEvaluateWithoutViewsBasic(t *testing.T) {
	d := sampleDoc(t)
	for _, qs := range []string{"//a//b//c", "//a[//f]//b//e", "//r//a//e"} {
		q := MustParseQuery(qs)
		want := EvaluateDirect(d, q)
		res, err := EvaluateWithoutViews(d, q, EngineTwigStack, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if !sameMatches(res, want) {
			t.Errorf("%s: got %d matches, want %d", qs, len(res.Matches), len(want.Matches))
		}
		if q.IsPath() {
			res, err = EvaluateWithoutViews(d, q, EnginePathStack, nil)
			if err != nil {
				t.Fatalf("%s PS: %v", qs, err)
			}
			if !sameMatches(res, want) {
				t.Errorf("%s PS: got %d matches, want %d", qs, len(res.Matches), len(want.Matches))
			}
		}
	}
	// View-based engines are rejected.
	q := MustParseQuery("//a//b")
	if _, err := EvaluateWithoutViews(d, q, EngineViewJoin, nil); err == nil {
		t.Errorf("VJ without views: expected error")
	}
	if _, err := EvaluateWithoutViews(d, q, EngineInterJoin, nil); err == nil {
		t.Errorf("IJ without views: expected error")
	}
}

// TestGeneralQueries: duplicate element types — the query class the paper
// defers to [5] — evaluated over raw streams and cross-checked against the
// direct evaluator.
func TestGeneralQueries(t *testing.T) {
	d, err := ParseDocumentString(
		`<a><a><b/><a><b/></a></a><b/><c><a><b/></a></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{"//a//a", "//a//a//b", "//a//b[//a]", "//a[//b][//c]//a", "//a/a/b"} {
		q, err := ParseQueryGeneral(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		want := EvaluateDirect(d, q)
		res, err := EvaluateWithoutViews(d, q, EngineTwigStack, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if !sameMatches(res, want) {
			t.Errorf("%s: got %d matches, want %d", qs, len(res.Matches), len(want.Matches))
		}
	}
	// The unique-label parser rejects what the general parser accepts.
	if _, err := ParseQuery("//a//a"); err == nil {
		t.Errorf("ParseQuery must reject duplicate labels")
	}
	if _, err := ParseQueryGeneral("//a//"); err == nil {
		t.Errorf("ParseQueryGeneral must still reject malformed input")
	}
}

// TestGeneralQueriesProperty: random general patterns (with forced
// duplicates) over random documents, raw-stream TwigStack vs the oracle.
func TestGeneralQueriesProperty(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := ParseDocumentString(randomXML(rng))
		if err != nil {
			return false
		}
		// Random general pattern: 2-4 nodes, labels drawn with replacement.
		n := 2 + rng.Intn(3)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				sb.WriteString("//")
			} else if i == 0 {
				sb.WriteString("//")
			} else {
				sb.WriteString("/")
			}
			sb.WriteString(labels[rng.Intn(len(labels))])
		}
		q, err := ParseQueryGeneral(sb.String())
		if err != nil {
			t.Logf("parse %q: %v", sb.String(), err)
			return false
		}
		want := EvaluateDirect(d, q)
		res, err := EvaluateWithoutViews(d, q, EngineTwigStack, &EvalOptions{DiskBased: rng.Intn(2) == 0})
		if err != nil {
			t.Logf("%s: %v", q, err)
			return false
		}
		if !sameMatches(res, want) {
			t.Logf("seed=%d q=%s: got %d, want %d", seed, q, len(res.Matches), len(want.Matches))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestViewsBeatRawStreams reproduces the premise of the paper (§I): using
// materialized views prunes the element streams, so the same engine scans
// fewer elements than over raw streams.
func TestViewsBeatRawStreams(t *testing.T) {
	d := GenerateNasa(400)
	q := MustParseQuery("//field//footnote//para")
	vs, err := ParseViews("//field//footnote//para")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, SchemeElement)
	if err != nil {
		t.Fatal(err)
	}
	withViews, err := Evaluate(d, q, mv, EngineTwigStack, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EvaluateWithoutViews(d, q, EngineTwigStack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(withViews, raw) {
		t.Fatalf("results disagree: %d vs %d", len(withViews.Matches), len(raw.Matches))
	}
	if withViews.Stats.ElementsScanned >= raw.Stats.ElementsScanned {
		t.Errorf("views should prune streams: %d vs %d scanned",
			withViews.Stats.ElementsScanned, raw.Stats.ElementsScanned)
	}
}

// TestEvaluateWithoutViewsPaging pins the raw-stream path to the same run
// contract as the view path: EvalOptions.Limit/Offset select the
// document-order slice of the oracle answer, sequentially and partitioned,
// and a sequential run reports the very Stats of the same engine over
// singleton element-scheme views — whose lists are the raw streams —
// including Partitions, PageHits and FirstMatchNanos.
func TestEvaluateWithoutViewsPaging(t *testing.T) {
	d := GenerateXMark(0.05)
	q := MustParseQuery("//site//item//name")
	want := EvaluateDirect(d, q).Matches
	vs, err := ParseViews("//site; //item; //name")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, SchemeElement)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineTwigStack, EnginePathStack} {
		p, err := Prepare(d, q, mv, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 4} {
			for _, pg := range [][2]int{{3, 2}, {3, 0}, {0, 5}, {4, len(want) - 2}, {2, len(want) + 1}} {
				opts := &EvalOptions{Limit: pg[0], Offset: pg[1], Parallelism: par}
				res, err := EvaluateWithoutViews(d, q, eng, opts)
				if err != nil {
					t.Fatalf("%v %+v: %v", eng, *opts, err)
				}
				page := pageOf(want, pg[0], pg[1])
				if !samePage(res.Matches, page) {
					t.Fatalf("%v %+v: %d rows, want the %d-row oracle slice", eng, *opts, len(res.Matches), len(page))
				}
				if par > 1 {
					continue // a bounded partitioned run's counters depend on scheduling
				}
				ref, err := p.RunWith(context.Background(), RunOptions{Limit: pg[0], Offset: pg[1], Parallel: 1})
				if err != nil {
					t.Fatal(err)
				}
				got, exp := res.Stats, ref.Stats
				if !sameCounters(got, exp) || got.PageHits != exp.PageHits || got.Partitions != 1 ||
					(got.FirstMatchNanos > 0) != (exp.FirstMatchNanos > 0) {
					t.Errorf("%v %+v: stats %+v, singleton-view run %+v", eng, *opts, got, exp)
				}
			}
		}
	}
}

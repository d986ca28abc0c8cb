package viewjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

const sampleXML = `<r>
  <a><b><c/><e/></b><e/></a>
  <a><f/><b><c/><c/><e/></b><e/></a>
</r>`

func sampleDoc(t testing.TB) *Document {
	t.Helper()
	d, err := ParseDocumentString(sampleXML)
	if err != nil {
		t.Fatalf("ParseDocumentString: %v", err)
	}
	return d
}

func TestParseDocumentAndWrite(t *testing.T) {
	d := sampleDoc(t)
	if d.NumNodes() != 13 {
		t.Fatalf("NumNodes = %d, want 13", d.NumNodes())
	}
	var sb strings.Builder
	if err := d.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDocumentString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumNodes() != d.NumNodes() {
		t.Fatalf("round trip lost nodes")
	}
	if _, err := ParseDocumentString("<a><b></a>"); err == nil {
		t.Errorf("malformed XML: expected error")
	}
	if _, err := ParseDocument(strings.NewReader("")); err == nil {
		t.Errorf("empty input: expected error")
	}
}

func TestQueryAPI(t *testing.T) {
	q, err := ParseQuery("//a[//f]//b//e")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 4 || q.IsPath() {
		t.Fatalf("unexpected query shape: %d nodes, path=%v", q.NumNodes(), q.IsPath())
	}
	labels := q.Labels()
	want := []string{"a", "f", "b", "e"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", labels, want)
		}
	}
	if _, err := ParseQuery("//a//a"); err == nil {
		t.Errorf("duplicate labels: expected error")
	}
	if MustParseQuery("//a").String() != "//a" {
		t.Errorf("String round trip failed")
	}
}

func TestEvaluateAllEnginesAgree(t *testing.T) {
	d := sampleDoc(t)
	q := MustParseQuery("//a[//f]//b//e")
	vs, err := ParseViews("//a//e; //b; //f")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateViewSet(q, vs); err != nil {
		t.Fatal(err)
	}
	want := EvaluateDirect(d, q)
	if len(want.Matches) == 0 {
		t.Fatalf("fixture has no matches")
	}
	for _, scheme := range []StorageScheme{SchemeElement, SchemeLE, SchemeLEp} {
		mv, err := d.MaterializeViews(vs, scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{EngineViewJoin, EngineTwigStack} {
			res, err := Evaluate(d, q, mv, eng, nil)
			if err != nil {
				t.Fatalf("%v+%v: %v", eng, scheme, err)
			}
			if !sameMatches(res, want) {
				t.Errorf("%v+%v: %d matches, want %d", eng, scheme, len(res.Matches), len(want.Matches))
			}
		}
	}
}

func TestEvaluatePathEngines(t *testing.T) {
	d := sampleDoc(t)
	q := MustParseQuery("//a//b//c")
	vs, _ := ParseViews("//a//c; //b")
	want := EvaluateDirect(d, q)

	mv, err := d.MaterializeViews(vs, SchemeElement)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(d, q, mv, EnginePathStack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(res, want) {
		t.Errorf("PathStack: %d matches, want %d", len(res.Matches), len(want.Matches))
	}

	tv, err := d.MaterializeViews(vs, SchemeTuple)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Evaluate(d, q, tv, EngineInterJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(res, want) {
		t.Errorf("InterJoin: %d matches, want %d", len(res.Matches), len(want.Matches))
	}
}

func TestEvaluateErrors(t *testing.T) {
	d := sampleDoc(t)
	q := MustParseQuery("//a//b")
	vs, _ := ParseViews("//a; //b")
	mv, _ := d.MaterializeViews(vs, SchemeElement)

	// Tuple engine on element views.
	if _, err := Evaluate(d, q, mv, EngineInterJoin, nil); err == nil {
		t.Errorf("InterJoin over element views: expected error")
	}
	// Element engine on tuple views.
	tv, _ := d.MaterializeViews(vs, SchemeTuple)
	if _, err := Evaluate(d, q, tv, EngineViewJoin, nil); err == nil {
		t.Errorf("ViewJoin over tuple views: expected error")
	}
	// Views from a different document.
	d2 := sampleDoc(t)
	mv2, _ := d2.MaterializeViews(vs, SchemeElement)
	if _, err := Evaluate(d, q, mv2, EngineViewJoin, nil); err == nil {
		t.Errorf("cross-document views: expected error")
	}
	// Non-covering view set.
	half, _ := ParseViews("//a")
	mh, _ := d.MaterializeViews(half, SchemeElement)
	if _, err := Evaluate(d, q, mh, EngineViewJoin, nil); err == nil {
		t.Errorf("non-covering views: expected error")
	}
	// Unknown engine.
	if _, err := Evaluate(d, q, mv, Engine(99), nil); err == nil {
		t.Errorf("unknown engine: expected error")
	}
}

func TestStatsPopulated(t *testing.T) {
	d := GenerateXMark(0.02)
	q := MustParseQuery("//site//item//text//keyword")
	vs, _ := ParseViews("//site//keyword; //item//text")
	mv, err := d.MaterializeViews(vs, SchemeLE)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(d, q, mv, EngineViewJoin, &EvalOptions{BufferPoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ElementsScanned == 0 || res.Stats.PagesRead == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("duration not measured")
	}
	resD, err := Evaluate(d, q, mv, EngineViewJoin, &EvalOptions{DiskBased: true})
	if err != nil {
		t.Fatal(err)
	}
	if resD.Stats.PagesWritten == 0 {
		t.Errorf("disk-based run wrote no pages")
	}
	if len(resD.Matches) != len(res.Matches) {
		t.Errorf("disk-based result differs: %d vs %d", len(resD.Matches), len(res.Matches))
	}
}

func TestMaterializedViewIntrospection(t *testing.T) {
	d := sampleDoc(t)
	v, _ := ParseQuery("//a//e")
	le, err := d.MaterializeView(v, SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := d.MaterializeView(v, SchemeElement, nil)
	tp, _ := d.MaterializeView(v, SchemeTuple, &MaterializeOptions{PageSize: 128})

	if le.Scheme() != SchemeLE || e.Scheme() != SchemeElement || tp.Scheme() != SchemeTuple {
		t.Errorf("schemes wrong: %v %v %v", le.Scheme(), e.Scheme(), tp.Scheme())
	}
	if le.NumPointers() == 0 || e.NumPointers() != 0 {
		t.Errorf("pointer counts wrong: LE=%d E=%d", le.NumPointers(), e.NumPointers())
	}
	if le.Pattern().String() != "//a//e" {
		t.Errorf("Pattern = %s", le.Pattern())
	}
	sizes := le.ListSizes()
	if len(sizes) != 2 || sizes[0] == 0 || sizes[1] == 0 {
		t.Errorf("ListSizes = %v", sizes)
	}
	if le.SizeBytes() == 0 || tp.NumEntries() == 0 {
		t.Errorf("size introspection empty")
	}
}

func TestSelectViewsFacade(t *testing.T) {
	d := GenerateNasa(100)
	q := MustParseQuery("//dataset//tableHead[//tableLink//title]//field//definition//para")
	poolPatterns, _ := ParseViews(
		"//dataset//definition; //dataset//tableHead; //field//para; //definition; //tableLink//title; //field//definition//para")
	var pool []*MaterializedView
	for _, p := range poolPatterns {
		mv, err := d.MaterializeView(p, SchemeLE, nil)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, mv)
	}
	sel, err := SelectViews(pool, q, DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(sel))
	for i, v := range sel {
		got[i] = v.Pattern().String()
	}
	sort.Strings(got)
	want := []string{"//dataset//tableHead", "//field//definition//para", "//tableLink//title"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("SelectViews = %v, want %v (Example 5.1)", got, want)
	}

	bySize, err := SelectViewsBySize(pool, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bySize) != 4 {
		t.Errorf("size-based selection has %d views, want 4 (Example 5.1)", len(bySize))
	}

	// Evaluate with the selected set end to end.
	res, err := Evaluate(d, q, sel, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2 := EvaluateDirect(d, q)
	if !sameMatches(res, want2) {
		t.Errorf("selected views give %d matches, want %d", len(res.Matches), len(want2.Matches))
	}

	// A pool that cannot cover.
	if _, err := SelectViews(pool[:1], q, DefaultLambda); err == nil {
		t.Errorf("uncoverable pool: expected error")
	}
}

func TestInterViewEdgesFacade(t *testing.T) {
	q := MustParseQuery("//dataset//tableHead//field//definition//footnote//para")
	vs, _ := ParseViews("//dataset//field//footnote; //tableHead//definition//para")
	if got := InterViewEdges(q, vs); got != 5 {
		t.Errorf("InterViewEdges = %d, want 5 (Table III PV1)", got)
	}
}

func TestGenerators(t *testing.T) {
	if d := GenerateXMark(0.01); d.NumNodes() == 0 {
		t.Errorf("empty xmark doc")
	}
	if d := GenerateNasa(0); d.NumNodes() == 0 {
		t.Errorf("empty nasa doc")
	}
}

// TestFacadeProperty runs the whole public pipeline on random inputs and
// cross-checks engines against the direct evaluator.
func TestFacadeProperty(t *testing.T) {
	queries := []string{"//a//b", "//a/b[//c]//e", "//a[//f]//b//e", "//b//c", "//a//e"}
	viewsets := []string{"", "//a; //b; //c; //e; //f"}
	_ = viewsets
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := ParseDocumentString(randomXML(rng))
		if err != nil {
			return false
		}
		q := MustParseQuery(queries[rng.Intn(len(queries))])
		// Singleton covering set from the query's own labels.
		var parts []string
		for _, l := range q.Labels() {
			parts = append(parts, "//"+l)
		}
		vs, err := ParseViews(strings.Join(parts, ";"))
		if err != nil {
			return false
		}
		scheme := []StorageScheme{SchemeElement, SchemeLE, SchemeLEp}[rng.Intn(3)]
		mv, err := d.MaterializeViews(vs, scheme)
		if err != nil {
			t.Logf("materialize: %v", err)
			return false
		}
		want := EvaluateDirect(d, q)
		for _, eng := range []Engine{EngineViewJoin, EngineTwigStack} {
			res, err := Evaluate(d, q, mv, eng, nil)
			if err != nil {
				t.Logf("%v: %v", eng, err)
				return false
			}
			if !sameMatches(res, want) {
				t.Logf("seed %d %v+%v: %d vs %d", seed, eng, scheme, len(res.Matches), len(want.Matches))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomXML(rng *rand.Rand) string {
	labels := []string{"a", "b", "c", "e", "f"}
	var sb strings.Builder
	sb.WriteString("<r>")
	var rec func(depth, budget int) int
	rec = func(depth, budget int) int {
		used := 0
		for budget-used > 0 && rng.Intn(3) != 0 && depth < 8 {
			l := labels[rng.Intn(len(labels))]
			sb.WriteString("<" + l + ">")
			used++
			used += rec(depth+1, budget-used)
			sb.WriteString("</" + l + ">")
		}
		return used
	}
	rec(0, 60)
	sb.WriteString("</r>")
	return sb.String()
}

// sameMatches reports whether two results hold the same rows in the same
// order, every node equal in all four fields (tag, start, end, level). Every
// engine emits document order, which is the oracle's enumeration order.
func sameMatches(a, b *Result) bool { return samePage(a.Matches, b.Matches) }

func TestViewCostFacade(t *testing.T) {
	d := sampleDoc(t)
	q := MustParseQuery("//a//b//c")
	mv, err := d.MaterializeView(MustParseQuery("//a//c"), SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := ViewCost(mv, q, DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Errorf("cost = %v, want > 0 (both a and c have uncovered edges)", cost)
	}
	// λ=0 gives pure I/O: the sum of the list sizes.
	io, err := ViewCost(mv, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	sizes := mv.ListSizes()
	if int(io) != sizes[0]+sizes[1] {
		t.Errorf("λ=0 cost = %v, want %d", io, sizes[0]+sizes[1])
	}
	// A non-subpattern view cannot answer the query.
	bad, err := d.MaterializeView(MustParseQuery("//c//a"), SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ViewCost(bad, q, 1); err == nil {
		t.Errorf("non-subpattern: expected error")
	}
}

func TestEngineAndSchemeStrings(t *testing.T) {
	names := map[string]string{
		EngineViewJoin.String():  "VJ",
		EngineTwigStack.String(): "TS",
		EnginePathStack.String(): "PS",
		EngineInterJoin.String(): "IJ",
		SchemeTuple.String():     "T",
		SchemeElement.String():   "E",
		SchemeLE.String():        "LE",
		SchemeLEp.String():       "LEp",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if Engine(99).String() == "" {
		t.Errorf("unknown engine must still render")
	}
}

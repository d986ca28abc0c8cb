package viewjoin

import (
	"sync"
	"testing"
)

// identicalMatches compares results exactly — same rows, in the same order,
// with the same node fields. Reusing a prepared plan must reproduce the
// one-shot evaluation bit for bit, not merely as a set.
func identicalMatches(a, b *Result) bool {
	if len(a.Matches) != len(b.Matches) {
		return false
	}
	for i := range a.Matches {
		if len(a.Matches[i]) != len(b.Matches[i]) {
			return false
		}
		for j := range a.Matches[i] {
			if a.Matches[i][j] != b.Matches[i][j] {
				return false
			}
		}
	}
	return true
}

// sameCounters compares the deterministic counter fields of two Stats
// (everything except the wall-clock Duration).
func sameCounters(a, b Stats) bool {
	return a.ElementsScanned == b.ElementsScanned &&
		a.Comparisons == b.Comparisons &&
		a.PointerDerefs == b.PointerDerefs &&
		a.PagesRead == b.PagesRead &&
		a.PagesWritten == b.PagesWritten &&
		a.PeakMemoryBytes == b.PeakMemoryBytes
}

// preparedCase is one engine/scheme/query combination exercised by the
// plan-reuse tests, covering all four engines.
type preparedCase struct {
	name   string
	eng    Engine
	scheme StorageScheme
	query  string
	views  string
}

func preparedCases() []preparedCase {
	return []preparedCase{
		{"VJ+LEp", EngineViewJoin, SchemeLEp,
			"//site//item[//description//keyword]/name", "//site//item//name; //description//keyword"},
		{"TS+E", EngineTwigStack, SchemeElement,
			"//site//item[//description//keyword]/name", "//site//item//name; //description//keyword"},
		{"PS+E", EnginePathStack, SchemeElement,
			"//site/open_auctions/open_auction/bidder/increase", "//site//increase; //open_auctions//open_auction//bidder"},
		{"IJ+T", EngineInterJoin, SchemeTuple,
			"//site/open_auctions/open_auction/bidder/increase", "//site//increase; //open_auctions//open_auction//bidder"},
	}
}

func materializeCase(t *testing.T, d *Document, c preparedCase) (*Query, []*MaterializedView) {
	t.Helper()
	q := MustParseQuery(c.query)
	vs, err := ParseViews(c.views)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	return q, mv
}

// TestPreparedReuseSequential runs the same PreparedQuery twice in a row on
// every engine and demands byte-identical matches against both the one-shot
// Evaluate and the direct-evaluation oracle — the pooled scratch state must
// leave no residue between runs.
func TestPreparedReuseSequential(t *testing.T) {
	d := GenerateXMark(0.05)
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			want := EvaluateDirect(d, q)
			one, err := Evaluate(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMatches(one, want) {
				t.Fatalf("one-shot: %d matches, oracle %d", len(one.Matches), len(want.Matches))
			}
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				res, err := p.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !identicalMatches(res, one) {
					t.Fatalf("run %d: %d matches, one-shot %d — reuse changed the result",
						run, len(res.Matches), len(one.Matches))
				}
				// Outside InterJoin nothing is charged at prepare time, so a
				// Run must reproduce the one-shot counters exactly; InterJoin
				// legitimately amortizes its view scans into Prepare.
				if c.eng != EngineInterJoin && !sameCounters(res.Stats, one.Stats) {
					t.Fatalf("run %d: counters %+v, one-shot %+v", run, res.Stats, one.Stats)
				}
				if c.eng == EngineInterJoin && res.Stats.ElementsScanned >= one.Stats.ElementsScanned {
					t.Fatalf("run %d: scanned %d, one-shot %d — prepare did not amortize the scans",
						run, res.Stats.ElementsScanned, one.Stats.ElementsScanned)
				}
			}
		})
	}
}

// TestPreparedReuseConcurrent hammers one PreparedQuery from 16 goroutines
// (two runs each) on every engine; with -race this is the proof that the
// per-plan scratch pools isolate concurrent executions.
func TestPreparedReuseConcurrent(t *testing.T) {
	d := GenerateXMark(0.05)
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			one, err := Evaluate(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 16
			errs := make([]error, goroutines)
			results := make([]*Result, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for run := 0; run < 2; run++ {
						res, err := p.Run()
						if err != nil {
							errs[g] = err
							return
						}
						results[g] = res
					}
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				if !identicalMatches(results[g], one) {
					t.Fatalf("goroutine %d: %d matches, one-shot %d",
						g, len(results[g].Matches), len(one.Matches))
				}
			}
		})
	}
}

// TestEvaluateBatch fans a mixed bag of prepared plans (all four engines,
// several repetitions each) through the worker pool and checks every slot
// against its query's one-shot result — order preserved, no cross-talk.
func TestEvaluateBatch(t *testing.T) {
	d := GenerateXMark(0.05)
	cases := preparedCases()
	prepared := make([]*PreparedQuery, len(cases))
	oneshot := make([]*Result, len(cases))
	for i, c := range cases {
		q, mv := materializeCase(t, d, c)
		one, err := Evaluate(d, q, mv, c.eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(d, q, mv, c.eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i], oneshot[i] = p, one
	}
	// Interleave the plans so concurrent slots run different engines.
	const rounds = 8
	var batch []*PreparedQuery
	var want []*Result
	for r := 0; r < rounds; r++ {
		for i := range prepared {
			batch = append(batch, prepared[i])
			want = append(want, oneshot[i])
		}
	}
	for _, parallel := range []int{0, 1, 4} {
		out := EvaluateBatch(batch, parallel)
		if len(out) != len(batch) {
			t.Fatalf("parallel=%d: %d results for %d queries", parallel, len(out), len(batch))
		}
		for i, br := range out {
			if br.Err != nil {
				t.Fatalf("parallel=%d slot %d: %v", parallel, i, br.Err)
			}
			if !identicalMatches(br.Result, want[i]) {
				t.Fatalf("parallel=%d slot %d (%s): %d matches, want %d",
					parallel, i, cases[i%len(cases)].name, len(br.Result.Matches), len(want[i].Matches))
			}
		}
	}
	if out := EvaluateBatch(nil, 4); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

// preparedRunAllocCeiling pins the allocation cost of a warm
// PreparedQuery.Run on the standard workload (289 matches): the row
// buffer's chunks, the page's outer row slice and a handful of fixed-size
// wrappers (measured: 17; it was 595, two per match, before the engines
// rendered rows straight from their labels). It must stay strictly below
// the one-shot Evaluate ceiling (noopTraceAllocCeiling) — the pooled path
// exists to shed the per-call plan and scratch allocations.
const preparedRunAllocCeiling = 24

// TestPreparedRunAllocations asserts the pooled Run path allocates strictly
// less than one-shot Evaluate and stays under its own pinned ceiling.
func TestPreparedRunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation changes allocation counts")
	}
	d, q, mv := noopWorkload(t)
	p, err := Prepare(d, q, mv, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	runAllocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
	})
	evalAllocs := testing.AllocsPerRun(5, func() {
		if _, err := Evaluate(d, q, mv, EngineViewJoin, nil); err != nil {
			t.Fatal(err)
		}
	})
	if runAllocs >= evalAllocs {
		t.Errorf("prepared Run allocates %.0f times, one-shot Evaluate %.0f — pooling must be strictly cheaper",
			runAllocs, evalAllocs)
	}
	if runAllocs > preparedRunAllocCeiling {
		t.Errorf("prepared Run allocates %.0f times, ceiling %d", runAllocs, preparedRunAllocCeiling)
	}
}

// TestPreparedRunAllocationsFlat asserts that a warm Run's allocation
// count does not grow with its match count: the same query over a
// document four times larger (about four times the matches) may allocate
// only the few extra row-buffer chunks that geometric growth needs.
func TestPreparedRunAllocationsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation changes allocation counts")
	}
	// Chunk capacity grows 1.5x per chunk, so 4x the rows takes at most
	// ceil(log1.5 4) = 4 more chunks.
	const maxExtraChunks = 4
	q := MustParseQuery("//site//item[//description//keyword]/name")
	vs, err := ParseViews("//site//item//name; //description//keyword")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineViewJoin, EngineTwigStack} {
		var matches [2]int
		var allocs [2]float64
		for i, scale := range []float64{0.05, 0.2} {
			d := GenerateXMark(scale)
			mv, err := d.MaterializeViews(vs, SchemeLEp)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Prepare(d, q, mv, eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			matches[i] = len(res.Matches)
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, err := p.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if matches[1] < 3*matches[0] {
			t.Fatalf("%v: %d and %d matches; the larger document must have several times more", eng, matches[0], matches[1])
		}
		if allocs[1] > allocs[0]+maxExtraChunks {
			t.Errorf("%v: warm Run allocates %.0f times for %d matches but %.0f for %d — allocation must not grow with the match count",
				eng, allocs[0], matches[0], allocs[1], matches[1])
		}
	}
}

// TestMaterializeViewsParallelDeterminism checks that the concurrent
// MaterializeViews produces exactly the per-view results of sequential
// MaterializeView calls, in input order.
func TestMaterializeViewsParallelDeterminism(t *testing.T) {
	d := GenerateXMark(0.05)
	vs, err := ParseViews("//site//item//name; //description//keyword; //open_auctions//open_auction//bidder; //site//increase; //people; //regions")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []StorageScheme{SchemeTuple, SchemeElement, SchemeLE, SchemeLEp} {
		got, err := d.MaterializeViews(vs, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(got) != len(vs) {
			t.Fatalf("%v: %d views, want %d", scheme, len(got), len(vs))
		}
		for i, v := range vs {
			want, err := d.MaterializeView(v, scheme, nil)
			if err != nil {
				t.Fatalf("%v %s: %v", scheme, v, err)
			}
			if got[i].Pattern().String() != v.String() {
				t.Fatalf("%v slot %d holds %s, want %s — output order must match input order",
					scheme, i, got[i].Pattern(), v)
			}
			if got[i].SizeBytes() != want.SizeBytes() ||
				got[i].NumEntries() != want.NumEntries() ||
				got[i].NumPointers() != want.NumPointers() {
				t.Fatalf("%v %s: parallel (%d bytes, %d entries, %d ptrs) != sequential (%d, %d, %d)",
					scheme, v, got[i].SizeBytes(), got[i].NumEntries(), got[i].NumPointers(),
					want.SizeBytes(), want.NumEntries(), want.NumPointers())
			}
		}
	}
}

// BenchmarkPreparedRun measures the steady-state serving cost of a reused
// plan; compare with BenchmarkEvaluateUntraced for the amortized planning
// overhead.
func BenchmarkPreparedRun(b *testing.B) {
	d, q, mv := noopWorkload(b)
	p, err := Prepare(d, q, mv, EngineViewJoin, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatch measures batched fan-out of one prepared plan
// across GOMAXPROCS workers, 16 executions per batch.
func BenchmarkEvaluateBatch(b *testing.B) {
	d, q, mv := noopWorkload(b)
	p, err := Prepare(d, q, mv, EngineViewJoin, nil)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]*PreparedQuery, 16)
	for i := range batch {
		batch[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, br := range EvaluateBatch(batch, 0) {
			if br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
}

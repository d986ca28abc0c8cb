package viewjoin

import (
	"testing"

	"viewjoin/internal/obs"
)

// noopTraceAllocCeiling pins the allocation cost of an untraced Evaluate on
// the standard workload below. It measures 193 allocations per evaluation
// (771 before the engines rendered result rows straight from their labels
// instead of allocating two objects per match); the ceiling leaves a small
// slack for runtime noise (map growth timing) while still failing loudly
// if tracing ever allocates on the disabled path (per-event allocations
// would add thousands).
const noopTraceAllocCeiling = 210

func noopWorkload(t testing.TB) (*Document, *Query, []*MaterializedView) {
	t.Helper()
	d := GenerateXMark(0.05)
	q := MustParseQuery("//site//item[//description//keyword]/name")
	vs, err := ParseViews("//site//item//name; //description//keyword")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	return d, q, mv
}

// TestNoopTracerAllocations asserts that leaving EvalOptions.Tracer nil
// keeps Evaluate at its pre-observability allocation count: the tracing
// hooks must cost nothing when disabled.
func TestNoopTracerAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	d, q, mv := noopWorkload(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Evaluate(d, q, mv, EngineViewJoin, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > noopTraceAllocCeiling {
		t.Errorf("untraced Evaluate allocates %.0f times, ceiling %d — the disabled tracing path must not allocate",
			allocs, noopTraceAllocCeiling)
	}
}

// BenchmarkEvaluateUntraced and BenchmarkEvaluateTraced compare the hot
// path with tracing off and on; `go test -bench Evaluate -benchmem .`
// shows the overhead tracing is allowed to cost only when requested.
func BenchmarkEvaluateUntraced(b *testing.B) {
	d, q, mv := noopWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(d, q, mv, EngineViewJoin, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateTraced(b *testing.B) {
	d, q, mv := noopWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		if _, err := Evaluate(d, q, mv, EngineViewJoin, &EvalOptions{Tracer: rec}); err != nil {
			b.Fatal(err)
		}
	}
}

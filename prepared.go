package viewjoin

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/engine/interjoin"
	"viewjoin/internal/engine/pathstack"
	"viewjoin/internal/engine/twigstack"
	vjengine "viewjoin/internal/engine/viewjoin"
	"viewjoin/internal/match"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/vsq"
	"viewjoin/internal/xmltree"
)

// PreparedQuery is a query compiled once against a document, a view set
// and an engine, ready to be executed any number of times. Preparation
// performs every per-plan step of Evaluate — view-set validation,
// view-segmented query construction, list binding, inverse-position maps
// and (for InterJoin) materializing the view streams — so Run pays only
// the per-execution costs the paper's §V cost model charges: cursor
// movement over the view lists, structural joins, and enumeration.
//
// Run draws evaluator scratch state (cursors, region logs, window buffers,
// join scratch) from an internal sync.Pool and resets it in place instead
// of reallocating, so a warm Run allocates only for its output.
//
// A PreparedQuery is immutable after Prepare and safe for concurrent runs
// provided the captured EvalOptions.Tracer is nil (tracers are not
// required to be concurrency-safe); documents and materialized views are
// already immutable after construction. RunOptions.Tracer attaches a
// tracer to a single execution instead, so concurrent traced runs of one
// shared plan are safe as long as each call brings its own tracer.
type PreparedQuery struct {
	d *Document
	// tree is the document snapshot the plan was compiled against; runs
	// read it (not the document head), so a plan stays self-consistent
	// across concurrent updates — it just answers at its own epoch.
	tree  *xmltree.Document
	epoch uint64
	q     *Query
	eng   Engine
	opts  EvalOptions

	// plan is the obs.Plan delivered to tracers. Prepare builds it eagerly
	// when it was given a tracer; otherwise planOnce builds it on the first
	// traced run (a per-call tracer on a plan prepared untraced, e.g. out
	// of a serving cache), keeping the untraced hot path allocation-free.
	plan     *obs.Plan
	planOnce sync.Once

	// Plan inputs retained for the lazy obs.Plan build and for footprint
	// accounting; all are immutable after Prepare.
	patterns []*tpq.Pattern
	stores   []*store.ViewStore
	v        *vsq.VSQ // VJ/TS/PS only
	viewPos  [][]int  // IJ only

	// prepC holds the costs charged during preparation (InterJoin's view
	// stream scans); the one-shot Evaluate folds them into its Stats to
	// keep historical counter totals, while Run reports per-execution
	// costs only — that amortization is the point of preparing.
	prepC counters.Counters

	vj *vjengine.Prepared
	ts *twigstack.Prepared
	ps *pathstack.Prepared
	ij *interjoin.Prepared

	// Partition-planning cache: the job list for a given parallelism and
	// the spine-order property depend only on the immutable plan, so they
	// are computed once and shared across runs — a serving plan pays the
	// anchor-span merge on its first parallel request, not on every one.
	partMu    sync.Mutex
	partPlans map[int][]engine.Restriction
	spineOrd  int8 // 0 unknown, 1 ordered, -1 not
}

// Prepare compiles q over the materialized views for the chosen engine.
// The views must form a valid minimal covering set of q, exactly as for
// Evaluate; opts (nil for defaults) is captured and applied to every Run.
//
// Prepare captures the document's current snapshot and requires every view
// to reflect exactly that snapshot: a view left behind by an Apply the
// caller did not Maintain it through fails with *EpochMismatchError
// (retryable after maintaining or re-materializing the view).
func Prepare(d *Document, q *Query, mviews []*MaterializedView, eng Engine, opts *EvalOptions) (*PreparedQuery, error) {
	if opts == nil {
		opts = &EvalOptions{}
	}
	snap := d.snap()
	patterns := make([]*tpq.Pattern, len(mviews))
	stores := make([]*store.ViewStore, len(mviews))
	for i, mv := range mviews {
		if mv.doc != d {
			return nil, fmt.Errorf("viewjoin: view %s materialized over a different document", mv.pattern)
		}
		st := mv.st()
		if st.tree != snap.tree {
			return nil, &EpochMismatchError{ViewEpoch: st.epoch, DocEpoch: snap.epoch, View: mv.pattern.String()}
		}
		patterns[i] = mv.pattern
		stores[i] = st.store
	}
	p := &PreparedQuery{d: d, tree: snap.tree, epoch: snap.epoch, q: q, eng: eng, opts: *opts, patterns: patterns, stores: stores}
	tr := opts.Tracer
	switch eng {
	case EngineViewJoin:
		v, err := buildVSQ(q, patterns, tr)
		if err != nil {
			return nil, err
		}
		p.v = v
		p.vj, err = vjengine.Prepare(snap.tree, v, stores, tr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			p.plan = tracePlan(q.p, patterns, stores, eng, v)
		}
	case EngineTwigStack, EnginePathStack:
		v, err := buildVSQ(q, patterns, tr)
		if err != nil {
			return nil, err
		}
		p.v = v
		lists, err := bindLists(v, stores, tr)
		if err != nil {
			return nil, err
		}
		if eng == EngineTwigStack {
			p.ts = twigstack.Prepare(snap.tree, q.p, lists)
		} else if p.ps, err = pathstack.Prepare(snap.tree, q.p, lists); err != nil {
			return nil, err
		}
		if tr != nil {
			p.plan = tracePlan(q.p, patterns, stores, eng, v)
		}
	case EngineInterJoin:
		if tr != nil {
			tr.BeginPhase(obs.PhaseSegment)
		}
		viewPos := make([][]int, len(patterns))
		for i, pat := range patterns {
			m, err := tpq.QueryNodeOfView(pat, q.p)
			if err != nil {
				if tr != nil {
					tr.EndPhase(obs.PhaseSegment)
				}
				return nil, err
			}
			viewPos[i] = m
		}
		if tr != nil {
			tr.EndPhase(obs.PhaseSegment)
		}
		io := counters.NewIO(&p.prepC, opts.BufferPoolPages)
		if tr != nil {
			io.Page = pageHook(tr)
		}
		ij, err := interjoin.Prepare(snap.tree, q.p, stores, viewPos, io, tr)
		if err != nil {
			return nil, err
		}
		p.ij = ij
		p.viewPos = viewPos
		if tr != nil {
			p.plan = interJoinPlan(q.p, patterns, stores, viewPos)
		}
	default:
		return nil, fmt.Errorf("viewjoin: unknown engine %v", eng)
	}
	return p, nil
}

// Query returns the prepared query.
func (p *PreparedQuery) Query() *Query { return p.q }

// Engine returns the engine the plan was compiled for.
func (p *PreparedQuery) Engine() Engine { return p.eng }

// Epoch returns the document epoch the plan was compiled at. Runs answer
// at this epoch regardless of later updates; a serving layer compares it
// against Document.Epoch to decide whether the plan is current.
func (p *PreparedQuery) Epoch() uint64 { return p.epoch }

// FootprintBytes estimates the bytes a cached PreparedQuery keeps resident
// beyond the shared document and materialized views: the engine's prepared
// state (for InterJoin, the materialized view streams — the dominant term)
// plus the retained plan inputs. It is an arithmetic estimate for cache
// accounting, not a precise heap measurement.
func (p *PreparedQuery) FootprintBytes() int64 {
	var f int64
	switch p.eng {
	case EngineViewJoin:
		f = p.vj.Footprint()
	case EngineTwigStack:
		f = p.ts.Footprint()
	case EnginePathStack:
		f = p.ps.Footprint()
	case EngineInterJoin:
		f = p.ij.Footprint()
		for _, m := range p.viewPos {
			f += 24 + int64(len(m))*8
		}
	}
	// Retained plan-input references and the PreparedQuery shell itself.
	f += int64(len(p.patterns)+len(p.stores))*8 + 256
	return f
}

// RunOptions are the per-call values of one execution. One rule governs
// them: a zero field takes the prepare-time EvalOptions value — Limit,
// Offset, Parallel (EvalOptions.Parallelism) and Tracer — and the same
// holds for a nil ctx passed to RunWith (EvalOptions.Context). After and
// Yield have no prepare-time counterpart; their zero value is off.
type RunOptions struct {
	// Limit bounds the result to the first Limit matches in document
	// order. The bound is pushed into the engines (see EvalOptions.Limit),
	// so peak result memory is O(Limit + open enumeration windows) and the
	// streaming engines stop scanning once the page is determined.
	Limit int
	// Offset skips the first Offset matches in document order (after the
	// After cursor filter, when both are set).
	Offset int
	// After, when non-nil, resumes strictly after a previous match: one
	// start label per query node (Node.Start of the previous page's last
	// row, in binding order), compared lexicographically — i.e. document
	// order. Unlike an offset, a cursor lets the streaming engines seek:
	// whole enumeration windows ending before the cursor are skipped
	// without being re-enumerated.
	After []int32
	// Parallel requests a range-partitioned run across up to Parallel
	// workers: 1 runs sequentially, a negative value uses GOMAXPROCS. The
	// result is byte-identical to the sequential one — same matches in the
	// same order, counters summed across partitions, PeakMemoryBytes the
	// largest single partition's peak, Stats.Partitions the number of jobs
	// executed. A plan that yields fewer than two jobs runs sequentially.
	Parallel int
	// Tracer observes this execution only. Because it travels with the
	// call rather than the plan, concurrent runs of one shared
	// PreparedQuery are safe as long as every call brings its own tracer —
	// this is how a serving layer traces requests on cached, untraced plans.
	Tracer obs.Tracer
	// Yield, when non-nil, receives each row of the page as it is produced
	// instead of materializing the result; the returned Result then
	// carries Stats only. The row slice is reused between calls — yield
	// must copy any bindings it keeps. Returning false stops the run early
	// (the engines unwind at their next checkpoint and RunWith still
	// returns a nil error).
	//
	// The streaming engines (ViewJoin, TwigStack) deliver in document
	// order while the scan is still in flight — sequentially, and under a
	// bounded partitioned run whose cross-job order follows job index
	// (every query node above the partition anchor binds at most one
	// candidate), where job 0's rows are yielded while later partitions
	// are still scanning. PathStack, InterJoin and the remaining
	// partitioned shapes cannot deliver before ordering is established;
	// they evaluate the page first and then replay it through yield.
	Yield func(row []Node) bool
}

// first is the engine-level output quota: the run may stop after
// offset+limit matches (counted after the cursor filter), because the
// requested page is fully determined by that prefix. 0 (no limit) leaves
// the run unbounded — an offset alone must still enumerate everything
// after the skipped prefix.
func (ro RunOptions) first() int {
	if ro.Limit <= 0 {
		return 0
	}
	return ro.Offset + ro.Limit
}

// slice reduces an engine's (already bounded, cursor-filtered) document-
// order output to the requested page.
func (ro RunOptions) slice(ms match.Set) match.Set {
	if ro.Offset > 0 {
		ms = ms[min(ro.Offset, len(ms)):]
	}
	if ro.Limit > 0 && len(ms) > ro.Limit {
		ms = ms[:ro.Limit]
	}
	return ms
}

// resolve applies the RunOptions zero-field rule against the prepare-time
// options. It is the one place the parallelism degree is decided.
func (p *PreparedQuery) resolve(ctx context.Context, ro RunOptions) (context.Context, RunOptions) {
	if ctx == nil {
		ctx = p.opts.Context
	}
	if ro.Limit == 0 {
		ro.Limit = p.opts.Limit
	}
	if ro.Offset == 0 {
		ro.Offset = p.opts.Offset
	}
	if ro.Parallel == 0 {
		ro.Parallel = p.opts.Parallelism
	}
	if ro.Parallel < 0 {
		ro.Parallel = runtime.GOMAXPROCS(0)
	}
	if ro.Tracer == nil {
		ro.Tracer = p.opts.Tracer
	}
	return ctx, ro
}

// RunWith executes the prepared plan once under ro and returns a fresh
// Result. Stats cover this execution only — preparation costs (for
// InterJoin, the view stream scans) were paid at Prepare time and are not
// re-charged; see Evaluate for the one-shot accounting.
//
// ctx bounds the run: cancellation or deadline expiry aborts the engines
// at their next cooperative checkpoint and returns a *CanceledError (no
// partial results; the pooled evaluator scratch is recycled normally). A
// nil ctx with no prepare-time Context runs uninterruptible at zero
// hot-path cost. This is the serving entry point: one immutable
// PreparedQuery, many concurrent requests, each with its own deadline,
// page and tracer.
func (p *PreparedQuery) RunWith(ctx context.Context, ro RunOptions) (*Result, error) {
	return p.run(ctx, ro, time.Now(), false)
}

// Run is RunWith with the prepare-time options.
func (p *PreparedQuery) Run() (*Result, error) {
	return p.RunWith(p.opts.Context, RunOptions{})
}

// RunParallel is RunWith with k as RunOptions.Parallel.
func (p *PreparedQuery) RunParallel(ctx context.Context, k int) (*Result, error) {
	return p.RunWith(ctx, RunOptions{Parallel: k})
}

// RunTraced is RunWith with k as RunOptions.Parallel and tr as
// RunOptions.Tracer.
func (p *PreparedQuery) RunTraced(ctx context.Context, k int, tr obs.Tracer) (*Result, error) {
	return p.RunWith(ctx, RunOptions{Parallel: k, Tracer: tr})
}

// pageHook adapts buffer-pool lookups into tracer page events.
func pageHook(tr obs.Tracer) func(miss bool) {
	return func(miss bool) {
		if miss {
			tr.Event(obs.EvPageMiss, -1, 1)
		} else {
			tr.Event(obs.EvPageHit, -1, 1)
		}
	}
}

// lazyPlan returns the obs.Plan for tracer delivery, building it on first
// use when Prepare ran untraced. The build is pure (it only walks the
// retained patterns, stores and segmentation), so sync.Once makes the
// result safe to share across concurrent traced runs.
func (p *PreparedQuery) lazyPlan() *obs.Plan {
	p.planOnce.Do(func() {
		if p.plan != nil {
			return // built eagerly by a traced Prepare
		}
		if p.eng == EngineInterJoin {
			p.plan = interJoinPlan(p.q.p, p.patterns, p.stores, p.viewPos)
		} else {
			p.plan = tracePlan(p.q.p, p.patterns, p.stores, p.eng, p.v)
		}
	})
	return p.plan
}

// run executes the plan under ro, timing from start (which a one-shot
// Evaluate sets before preparation so Duration keeps covering the whole
// call). includePrep folds preparation-time counters into the Stats. A
// non-nil ctx installs a cooperative interrupt hook in the engine options;
// the hook wraps the context error in a *CanceledError so callers see
// which query and engine were aborted.
func (p *PreparedQuery) run(ctx context.Context, ro RunOptions, start time.Time, includePrep bool) (*Result, error) {
	ctx, ro = p.resolve(ctx, ro)
	var interrupt func() error
	if ctx != nil {
		interrupt = contextInterrupt(ctx, p.eng, p.q.String())
		// Check upfront so an already-expired deadline aborts before any
		// engine work, independent of the engines' check strides.
		if err := interrupt(); err != nil {
			return nil, err
		}
	}
	tr := ro.Tracer
	if tr != nil {
		if pl := p.lazyPlan(); pl != nil {
			tr.Plan(pl)
		}
		tr.BeginPhase(obs.PhaseEvaluate)
	}
	jobs := p.planPartitions(ro.Parallel)
	var st *streamer
	live := false
	if ro.Yield != nil {
		st = &streamer{tree: p.tree, yield: ro.Yield, row: make([]Node, p.q.p.Size()), skip: ro.Offset, left: -1}
		if ro.Limit > 0 {
			st.left = ro.Limit
		}
		// Rows can flow straight out of the engines only when they arrive
		// in document order; otherwise the page is replayed below.
		live = (p.eng == EngineViewJoin || p.eng == EngineTwigStack) &&
			(len(jobs) < 2 || ro.first() > 0 && p.spineOrdered())
	}
	var outs []jobOut
	if len(jobs) < 2 {
		var emit func(match.Match) bool
		if live {
			emit = st.deliver
		}
		outs = []jobOut{p.exec(nil, interrupt, ro, tr, emit)}
	} else {
		var sink *streamer
		if live {
			sink = st
		}
		outs = p.runJobs(jobs, interrupt, ro, sink)
		if tr != nil {
			// Partitions run untraced (tracers are not concurrency-safe);
			// one event per job still exposes the partition-span
			// distribution.
			for i := range outs {
				if !outs[i].skipped {
					tr.Event(obs.EvPartition, -1, int64(outs[i].dur))
				}
			}
		}
	}
	if tr != nil {
		tr.EndPhase(obs.PhaseEvaluate)
	}

	var c counters.Counters
	if includePrep {
		c.Add(p.prepC)
	}
	var (
		peak       int64
		firstMatch time.Time
		executed   int
	)
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		if outs[i].skipped {
			continue
		}
		executed++
		c.Add(outs[i].c)
		peak = max(peak, outs[i].peak)
		if t := outs[i].first; !t.IsZero() && (firstMatch.IsZero() || t.Before(firstMatch)) {
			firstMatch = t
		}
	}
	ms := mergeJobMatches(outs)
	if st != nil {
		if !live {
			for i := 0; i < len(ms) && !st.done; i++ {
				st.deliver(ms[i])
			}
		}
		ms = nil
	}
	return p.buildResult(ro.slice(ms), c, peak, executed, start, firstMatch, tr), nil
}

// jobOut is one execution's outcome — the whole run, or one partition of
// a parallel one, written only by its worker.
type jobOut struct {
	ms      match.Set
	c       counters.Counters
	peak    int64
	dur     time.Duration
	first   time.Time
	skipped bool
	err     error
}

// exec runs the engine once over restriction r (nil: the whole document)
// with its own counters and its own buffer pool of the configured size
// (pools simulate per-cursor-set caching and cannot be shared across
// goroutines). A non-nil emit streams the matches instead of accumulating
// them (ViewJoin/TwigStack only).
func (p *PreparedQuery) exec(r *engine.Restriction, interrupt func() error, ro RunOptions,
	tr obs.Tracer, emit func(match.Match) bool) jobOut {
	t0 := time.Now()
	var out jobOut
	// The IO keeps a pointer to the counters, which therefore live on the
	// heap; keeping them apart from out keeps that allocation small.
	var c counters.Counters
	io := counters.NewIO(&c, p.opts.BufferPoolPages)
	io.SetStall(p.opts.IOLatency)
	if tr != nil {
		io.Page = pageHook(tr)
	}
	eopts := engine.Options{
		Tracer:         tr,
		DiskBased:      p.opts.DiskBased,
		PageSize:       p.opts.PageSize,
		UnguardedJumps: p.opts.UnguardedJumps,
		Interrupt:      interrupt,
		Restrict:       r,
		// Under partitioning the page quota doubles as the per-job bound:
		// any match in the global first offset+limit is in its own
		// partition's first offset+limit.
		First: ro.first(),
		After: ro.After,
		Emit:  emit,
	}
	switch p.eng {
	case EngineViewJoin:
		var st vjengine.Stats
		out.ms, st, out.err = p.vj.Run(io, eopts)
		out.peak = int64(st.PeakWindowEntries) * 16
	case EngineTwigStack:
		var st twigstack.Stats
		out.ms, st, out.err = p.ts.Run(io, eopts)
		out.peak = int64(st.PeakWindowEntries) * 16
	case EnginePathStack:
		out.ms, out.err = p.ps.Run(io, eopts)
	case EngineInterJoin:
		out.ms, out.err = p.ij.Run(io, eopts)
	}
	io.DrainStall()
	out.c = c
	out.dur = time.Since(t0)
	out.first = io.FirstMatchTime()
	return out
}

// streamer delivers matches to a RunOptions.Yield in document order: it
// skips the Offset prefix, renders each row into one reused slice, and is
// done once the page is full or yield declines.
type streamer struct {
	tree  *xmltree.Document
	yield func(row []Node) bool
	row   []Node
	skip  int
	left  int // rows the page still takes; negative when unbounded
	done  bool
}

// deliver hands m to yield and reports yield's verdict. A full page is not
// a refusal: the engines' own quota stops the run at that same match.
func (s *streamer) deliver(m match.Match) bool {
	if s.done {
		return false
	}
	if s.skip > 0 {
		s.skip--
		return true
	}
	fillRow(s.tree, s.row, m)
	ok := s.yield(s.row)
	s.left--
	s.done = !ok || s.left == 0
	return ok
}

// fillRow renders match m's node bindings over tree t into row.
func fillRow(t *xmltree.Document, row []Node, m match.Match) {
	for j, id := range m {
		n := t.Node(id)
		row[j] = Node{Tag: t.TypeName(n.Type), Start: n.Start, End: n.End, Level: n.Level}
	}
}

// rows renders a match set as freshly allocated result rows.
func rows(t *xmltree.Document, ms match.Set) [][]Node {
	out := make([][]Node, len(ms))
	for i, m := range ms {
		out[i] = make([]Node, len(m))
		fillRow(t, out[i], m)
	}
	return out
}

// buildResult renders an engine's match set into the public Result,
// stamping the run's counters into Stats and resolving node bindings.
func (p *PreparedQuery) buildResult(ms match.Set, c counters.Counters, peak int64, partitions int,
	start time.Time, firstMatch time.Time, tr obs.Tracer) *Result {
	var firstNanos int64
	if !firstMatch.IsZero() {
		firstNanos = firstMatch.Sub(start).Nanoseconds()
	}
	res := &Result{
		Stats: Stats{
			ElementsScanned: c.ElementsScanned,
			Comparisons:     c.Comparisons,
			PointerDerefs:   c.PointerDerefs,
			PagesRead:       c.PagesRead,
			PagesWritten:    c.PagesWritten,
			PageHits:        c.PageHits,
			JumpsTaken:      c.JumpsTaken,
			JumpsRefused:    c.JumpsRefused,
			PeakMemoryBytes: peak,
			Duration:        time.Since(start),
			FirstMatchNanos: firstNanos,
			Partitions:      partitions,
		},
	}
	if tr != nil {
		tr.BeginPhase(obs.PhaseOutput)
	}
	res.Matches = rows(p.tree, ms)
	if tr != nil {
		tr.EndPhase(obs.PhaseOutput)
	}
	if rec, ok := tr.(*obs.Recorder); ok {
		res.Trace = rec.Report(c, time.Since(start))
		res.Trace.FirstMatchNanos = firstNanos
	}
	return res
}

// BatchResult is the outcome of one query in an EvaluateBatch call.
type BatchResult struct {
	Result *Result
	Err    error
}

// EvaluateBatch executes prepared queries across a bounded worker pool and
// returns the per-query outcomes in input order. parallel bounds the
// number of concurrent executions; <= 0 uses GOMAXPROCS. The same
// PreparedQuery may appear (or be run) multiple times — concurrent Run
// calls are safe as long as every query was prepared with a nil Tracer.
func EvaluateBatch(queries []*PreparedQuery, parallel int) []BatchResult {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	out := make([]BatchResult, len(queries))
	parallelFor(parallel, len(queries), func(i int) {
		r, err := queries[i].Run()
		out[i] = BatchResult{Result: r, Err: err}
	})()
	return out
}

// parallelFor runs work(0..n-1) on up to workers goroutines pulling
// indices from a shared counter — inline, before it returns, when that is
// one or fewer — and returns a wait that blocks until every call has
// returned. Output determinism is the caller's: write only to slot i.
func parallelFor(workers, n int, work func(i int)) (wait func()) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return func() {}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	return wg.Wait
}

// buildVSQ wraps vsq.Build in the segment phase span.
func buildVSQ(q *Query, patterns []*tpq.Pattern, tr obs.Tracer) (*vsq.VSQ, error) {
	if tr != nil {
		tr.BeginPhase(obs.PhaseSegment)
		defer tr.EndPhase(obs.PhaseSegment)
	}
	return vsq.Build(q.p, patterns)
}

// bindLists wraps engine.BindLists in the bind phase span (for the engines
// that bind here rather than inside their Prepare).
func bindLists(v *vsq.VSQ, stores []*store.ViewStore, tr obs.Tracer) ([]*store.ListFile, error) {
	if tr != nil {
		tr.BeginPhase(obs.PhaseBind)
		defer tr.EndPhase(obs.PhaseBind)
	}
	return engine.BindLists(v, stores)
}

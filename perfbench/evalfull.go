package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"viewjoin"
	"viewjoin/internal/obs"
	"viewjoin/internal/workload"
)

// eval-full: one client runs the paper's 22 queries (§VI) through
// PreparedQuery.Run and RunParallel over their covering views on the
// Fig. 5 storage/engine combos, on the bench/v1 documents (XMark scale 1,
// Nasa 4,000 datasets). Every op returns the full result and the client
// reads every node of every row inside the timed interval, so enumeration,
// result building and GC dominate.

const (
	evalXMarkScale   = 1.0
	evalNasaDatasets = 4000
	// Each (query, combo) plan appears this many times per deck round,
	// one of them as RunParallel(ctx, evalParallelK): ¾ Run, ¼ RunParallel.
	evalRunsPerRound = 4
	evalParallelK    = 2
)

// combo is one storage scheme + engine pairing of Fig. 5.
type combo struct {
	name   string
	eng    viewjoin.Engine
	scheme viewjoin.StorageScheme
	path   bool // path queries only
}

var evalCombos = []combo{
	{"VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp, false},
	{"VJ+LE", viewjoin.EngineViewJoin, viewjoin.SchemeLE, false},
	{"TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement, false},
	{"PS+E", viewjoin.EnginePathStack, viewjoin.SchemeElement, true},
	{"IJ+T", viewjoin.EngineInterJoin, viewjoin.SchemeTuple, true},
}

// paperQuery is one §VI query bound to its document, parsed through the
// public API.
type paperQuery struct {
	name    string
	docName string // "xmark" or "nasa"
	doc     *viewjoin.Document
	q       *viewjoin.Query
	views   []*viewjoin.Query
	path    bool
	oracle  [][]viewjoin.Node
	// oracleJSON holds each oracle row as the server encodes it.
	oracleJSON [][]byte
}

// paperQueries parses the 14 XMark and 8 Nasa queries with their covering
// views.
func paperQueries(xm, ns *viewjoin.Document) ([]*paperQuery, error) {
	var out []*paperQuery
	add := func(docName string, d *viewjoin.Document, set []workload.Query) error {
		for _, wq := range set {
			q, err := viewjoin.ParseQuery(wq.Pattern.String())
			if err != nil {
				return err
			}
			pq := &paperQuery{name: wq.Name, docName: docName, doc: d, q: q, path: wq.Path}
			for _, v := range wq.Views {
				vq, err := viewjoin.ParseQuery(v.String())
				if err != nil {
					return err
				}
				pq.views = append(pq.views, vq)
			}
			out = append(out, pq)
		}
		return nil
	}
	if xm != nil {
		if err := add("xmark", xm, append(workload.XMarkPath(), workload.XMarkTwig()...)); err != nil {
			return nil, err
		}
	}
	if ns != nil {
		if err := add("nasa", ns, append(workload.NasaPath(), workload.NasaTwig()...)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type evalPlan struct {
	query *paperQuery
	combo combo
	views []*viewjoin.MaterializedView
	plan  *viewjoin.PreparedQuery
}

type evalFull struct {
	seed    int64
	queries []*paperQuery
	plans   []*evalPlan
	times   map[string]float64
}

func setupEvalFull(cfg *config, _ bool) (instance, error) {
	e := &evalFull{seed: cfg.seed, times: map[string]float64{}}
	t0 := time.Now()
	xm := viewjoin.GenerateXMark(evalXMarkScale)
	ns := viewjoin.GenerateNasa(evalNasaDatasets)
	var err error
	if e.queries, err = paperQueries(xm, ns); err != nil {
		return nil, err
	}
	var materialize time.Duration
	for _, pq := range e.queries {
		byScheme := map[viewjoin.StorageScheme][]*viewjoin.MaterializedView{}
		for _, c := range evalCombos {
			if c.path && !pq.path {
				continue
			}
			mv, ok := byScheme[c.scheme]
			if !ok {
				m0 := time.Now()
				if mv, err = pq.doc.MaterializeViews(pq.views, c.scheme); err != nil {
					return nil, fmt.Errorf("%s %s: %w", pq.name, c.name, err)
				}
				materialize += time.Since(m0)
				byScheme[c.scheme] = mv
			}
			p, err := viewjoin.Prepare(pq.doc, pq.q, mv, c.eng, nil)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", pq.name, c.name, err)
			}
			e.plans = append(e.plans, &evalPlan{query: pq, combo: c, views: mv, plan: p})
		}
	}
	e.times["total"] = time.Since(t0).Seconds()
	e.times["views.materialize_s"] = materialize.Seconds()
	return e, nil
}

func (e *evalFull) setupTimes() map[string]float64 { return e.times }

func (e *evalFull) describe(out io.Writer) {
	xm, ns := e.queries[0].doc, e.queries[len(e.queries)-1].doc
	seen := map[*viewjoin.MaterializedView]bool{}
	var views int
	var bytes int64
	for _, ep := range e.plans {
		for _, mv := range ep.views {
			if !seen[mv] {
				seen[mv] = true
				views++
				bytes += mv.FootprintBytes()
			}
		}
	}
	fmt.Fprintf(out, "eval-full: xmark scale %g = %d nodes, nasa %d datasets = %d nodes; %d queries, %d plans over %d combos; %d views, %d bytes\n",
		evalXMarkScale, xm.NumNodes(), evalNasaDatasets, ns.NumNodes(), len(e.queries), len(e.plans), len(evalCombos), views, bytes)
}

func (e *evalFull) oracle() error {
	for _, pq := range e.queries {
		pq.oracle = viewjoin.EvaluateDirect(pq.doc, pq.q).Matches
	}
	return nil
}

func (e *evalFull) close() error { return nil }

// evalOp is one deck entry: a plan and whether it runs partitioned.
type evalOp struct {
	plan     int
	parallel bool
}

// deck deals ops in rounds: every plan evalRunsPerRound times per round,
// in an order shuffled from the seed, so each run's op mix matches every
// other run's up to the last partial round.
type deck struct {
	rng  *rand.Rand
	ops  []evalOp
	next int
}

func newDeck(seed int64, plans int) *deck {
	d := &deck{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < plans; i++ {
		for r := 0; r < evalRunsPerRound; r++ {
			d.ops = append(d.ops, evalOp{plan: i, parallel: r == 0})
		}
	}
	d.next = len(d.ops)
	return d
}

func (d *deck) deal() evalOp {
	if d.next == len(d.ops) {
		d.rng.Shuffle(len(d.ops), func(i, j int) { d.ops[i], d.ops[j] = d.ops[j], d.ops[i] })
		d.next = 0
	}
	op := d.ops[d.next]
	d.next++
	return op
}

// consumeSink keeps the compiler from discarding the consumer's reads.
var consumeSink int64

// consume reads every node of every row, as a caller using the result
// would.
func consume(rows [][]viewjoin.Node) {
	var s int64
	for _, row := range rows {
		for _, n := range row {
			s += int64(n.Start) + int64(n.End) + int64(n.Level) + int64(len(n.Tag))
		}
	}
	consumeSink += s
}

// sameRows reports whether got equals the oracle row for row.
func sameRows(got, want [][]viewjoin.Node) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d nodes, oracle %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("row %d node %d is %+v, oracle %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

var phaseSpanNames = []string{"evaluate", "enumerate", "output"}

func (e *evalFull) run(cfg *config, w *window) error {
	traced := w.spans != nil
	if traced {
		if err := e.tracedPrepares(w); err != nil {
			return err
		}
	}
	w.single = true
	d := newDeck(e.seed, len(e.plans))
	ctx := context.Background()
	// Per-plan latencies feed parallel.speedup: sequential ÷ parallel
	// latency of the same query and combo.
	seqLat := make([][]time.Duration, len(e.plans))
	parLat := make([][]time.Duration, len(e.plans))
	var (
		phaseSum  = map[string]time.Duration{}
		phaseRuns = map[string]int{}
		parOps    int64
		parParts  int64
		peakSum   int64
	)
	for w.more() {
		op := d.deal()
		ep := e.plans[op.plan]
		id := w.nextOp()
		w.attempted.Add(1)
		var rec *obs.Recorder
		if traced {
			rec = obs.NewRecorder()
		}
		t0 := time.Now()
		var res *viewjoin.Result
		var err error
		k := 1
		if op.parallel {
			k = evalParallelK
		}
		switch {
		case traced:
			res, err = ep.plan.RunTraced(ctx, k, rec)
		case op.parallel:
			res, err = ep.plan.RunParallel(ctx, k)
		default:
			res, err = ep.plan.Run()
		}
		t1 := time.Now()
		if err != nil {
			w.failed.Add(1)
			fmt.Fprintf(os.Stderr, "eval-full %s %s: %v\n", ep.query.name, ep.combo.name, err)
			continue
		}
		consume(res.Matches)
		t2 := time.Now()
		lat := t2.Sub(t0)
		w.done(lat, true, op.parallel)
		mode := "run"
		if op.parallel {
			mode = "parallel"
			parLat[op.plan] = append(parLat[op.plan], lat)
			parOps++
			parParts += int64(res.Stats.Partitions)
		} else {
			seqLat[op.plan] = append(seqLat[op.plan], lat)
		}

		um := beginUntimed()
		if err := sameRows(res.Matches, ep.query.oracle); err != nil {
			return fmt.Errorf("eval-full %s %s %s: wrong answer: %v", ep.query.name, ep.combo.name, mode, err)
		}
		key := ep.query.name + "|" + ep.combo.name + "|" + mode
		if err := w.counters(ep.combo.name, key, countersOf(res.Stats, len(res.Matches))); err != nil {
			return err
		}
		peakSum += res.Stats.PeakMemoryBytes
		if traced {
			name := "viewjoin.Run"
			if op.parallel {
				name = "viewjoin.RunParallel"
			}
			tc := time.Now()
			root := w.spans.add(id, -1, "op", t0, tc)
			run := w.spans.add(id, root, name, t0, t1)
			durs := make([]time.Duration, len(phaseSpanNames))
			for i, ph := range []obs.Phase{obs.PhaseEvaluate, obs.PhaseEnumerate, obs.PhaseOutput} {
				durs[i] = rec.PhaseDuration(ph)
			}
			w.spans.derived(id, run, t0, phaseSpanNames, durs)
			w.spans.add(id, root, "consume", t1, t2)
			w.spans.add(id, root, "check", t2, tc)
			// Phase splits are taken from sequential runs only: a
			// partitioned run's workers enumerate untraced inside the
			// evaluate phase.
			if !op.parallel {
				eng := engineMetricName(ep.combo.eng)
				phaseSum["engine."+eng+".evaluate_us"] += durs[0]
				phaseRuns["engine."+eng+".evaluate_us"]++
				phaseSum["enum.enumerate_us"] += durs[1]
				phaseRuns["enum.enumerate_us"]++
				phaseSum["result.output_us"] += durs[2]
				phaseRuns["result.output_us"]++
			}
		}
		w.endUntimed(um)
	}

	for name, sum := range phaseSum {
		w.layer[name] = micros(sum) / float64(phaseRuns[name])
	}
	w.layer["parallel.partitions_per_op"] = ratio(float64(parParts), float64(parOps))
	w.layer["enum.peak_bytes"] = ratio(float64(peakSum), float64(w.ops.Load()))
	var seqSum, parSum time.Duration
	for i := range e.plans {
		if len(seqLat[i]) > 0 && len(parLat[i]) > 0 {
			seqSum += quantile(seqLat[i], 0.5)
			parSum += quantile(parLat[i], 0.5)
		}
	}
	w.layer["parallel.speedup"] = ratio(float64(seqSum), float64(parSum))
	w.comboLayer()
	return nil
}

// tracedPrepares prepares every plan once more under a recorder, for the
// plan layer's numbers; the plans the window runs stay the untraced ones
// from setup, so tracing cannot change which plan runs.
func (e *evalFull) tracedPrepares(w *window) error {
	var n int
	var total, seg, bind time.Duration
	for _, ep := range e.plans {
		rec := obs.NewRecorder()
		id := w.nextOp()
		t0 := time.Now()
		if _, err := viewjoin.Prepare(ep.query.doc, ep.query.q, ep.views, ep.combo.eng, &viewjoin.EvalOptions{Tracer: rec}); err != nil {
			return fmt.Errorf("traced prepare %s %s: %w", ep.query.name, ep.combo.name, err)
		}
		t1 := time.Now()
		sp := w.spans.add(id, -1, "viewjoin.Prepare", t0, t1)
		durs := []time.Duration{rec.PhaseDuration(obs.PhaseSegment), rec.PhaseDuration(obs.PhaseBind)}
		w.spans.derived(id, sp, t0, []string{"segment", "bind"}, durs)
		n++
		total += t1.Sub(t0)
		seg += durs[0]
		bind += durs[1]
	}
	w.layer["prepare.us"] = micros(total) / float64(n)
	w.layer["prepare.segment_us"] = micros(seg) / float64(n)
	w.layer["prepare.bind_us"] = micros(bind) / float64(n)
	return nil
}

// engineMetricName is the per-engine metric component: vj, ts, ps, ij.
func engineMetricName(e viewjoin.Engine) string {
	return comboMetricName(e.String())
}

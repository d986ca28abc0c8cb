package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"viewjoin"
)

// Minimum samples a time-bounded window collects: it runs past --seconds
// until both are met, up to maxOverrun times the requested length.
const (
	minQuerySamples = 1000
	minMinorSamples = 200
	maxOverrun      = 5
)

// window is the measurement state of one run of a workload: outcome
// accounting, latency samples, deterministic counters and per-layer
// values. Clients of the concurrent workload share it, so the mutable
// parts are guarded.
type window struct {
	cfg   *config
	spans *spanLog // nil when untraced
	// single marks a single-client window: its client work (answer
	// checks, request encoding, response decoding) is left out of busy
	// time and allocation counts. With concurrent clients that cannot be
	// separated from the other clients' requests, so it stays in.
	single bool

	start    time.Time
	elapsed  time.Duration
	rt0, rt1 runtimeSample
	e2e      map[string]float64 // end-to-end metrics, set when the window ends

	attempted atomic.Int64
	failed    atomic.Int64
	ops       atomic.Int64 // completed ops of every class
	opID      atomic.Int64

	mu           sync.Mutex
	queryLat     []time.Duration
	minorLat     []time.Duration
	queries      int           // completed query ops
	minors       int           // completed minority-class ops
	untimed      time.Duration // answer checks and client bookkeeping, excluded from busy time
	untimedAlloc float64
	untimedObjs  float64
	combos       map[string]*comboCounters
	counterSeen  map[string]opCounters
	counterRef   map[string]opCounters // traced window: the untraced window's counters
	layer        map[string]float64
}

func newWindow(cfg *config, spans *spanLog) *window {
	return &window{
		cfg:         cfg,
		spans:       spans,
		combos:      map[string]*comboCounters{},
		counterSeen: map[string]opCounters{},
		layer:       map[string]float64{},
	}
}

// more reports whether the window should issue another op: before the
// deadline (or op budget), and past it until the sample minimums are met.
func (w *window) more() bool {
	n := w.ops.Load()
	if w.cfg.ops > 0 {
		return n < int64(w.cfg.ops)
	}
	el := time.Since(w.start)
	budget := time.Duration(w.cfg.seconds * float64(time.Second))
	if el < budget {
		return true
	}
	w.mu.Lock()
	short := w.queries < minQuerySamples || w.minors < minMinorSamples
	w.mu.Unlock()
	return short && el < maxOverrun*budget
}

// nextOp returns a fresh op id for spans.
func (w *window) nextOp() int64 { return w.opID.Add(1) }

// done records a completed op. query marks a query op (a page, a count or
// a library run); minor marks the workload's minority class (RunParallel
// calls, count-only queries, updates).
func (w *window) done(lat time.Duration, query, minor bool) {
	w.ops.Add(1)
	w.mu.Lock()
	if query {
		w.queries++
		w.queryLat = append(w.queryLat, lat)
	}
	if minor {
		w.minors++
		w.minorLat = append(w.minorLat, lat)
	}
	w.mu.Unlock()
}

// untimedMark is the start of an untimed section.
type untimedMark struct {
	t            time.Time
	bytes, objts float64
}

// beginUntimed starts a section whose time and allocations are left out
// of the window's busy time and allocation counts: answer checks, oracle
// work and the client's own bookkeeping in single-client workloads.
func beginUntimed() untimedMark {
	b, o := readAllocs()
	return untimedMark{time.Now(), b, o}
}

// beginClient and endClient bracket client-side request work: untimed in
// a single-client window, part of the window otherwise.
func (w *window) beginClient() untimedMark {
	if !w.single {
		return untimedMark{t: time.Now()}
	}
	return beginUntimed()
}

func (w *window) endClient(m untimedMark) {
	if w.single {
		w.endUntimed(m)
	}
}

func (w *window) endUntimed(m untimedMark) {
	d := time.Since(m.t)
	b, o := readAllocs()
	w.mu.Lock()
	w.untimed += d
	w.untimedAlloc += b - m.bytes
	w.untimedObjs += o - m.objts
	w.mu.Unlock()
}

// opCounters are the deterministic counters of one op.
type opCounters struct {
	Matches         int64
	PagesRead       int64
	PageHits        int64
	Comparisons     int64
	ElementsScanned int64
	PointerDerefs   int64
	JumpsTaken      int64
	JumpsRefused    int64
	PeakMemoryBytes int64
	Partitions      int64
}

func countersOf(st viewjoin.Stats, matches int) opCounters {
	return opCounters{
		Matches:         int64(matches),
		PagesRead:       st.PagesRead,
		PageHits:        st.PageHits,
		Comparisons:     st.Comparisons,
		ElementsScanned: st.ElementsScanned,
		PointerDerefs:   st.PointerDerefs,
		JumpsTaken:      st.JumpsTaken,
		JumpsRefused:    st.JumpsRefused,
		PeakMemoryBytes: st.PeakMemoryBytes,
		Partitions:      int64(st.Partitions),
	}
}

func (c *opCounters) add(o opCounters) {
	c.Matches += o.Matches
	c.PagesRead += o.PagesRead
	c.PageHits += o.PageHits
	c.Comparisons += o.Comparisons
	c.ElementsScanned += o.ElementsScanned
	c.PointerDerefs += o.PointerDerefs
	c.JumpsTaken += o.JumpsTaken
	c.JumpsRefused += o.JumpsRefused
	c.PeakMemoryBytes += o.PeakMemoryBytes
	c.Partitions += o.Partitions
}

// comboCounters sums the deterministic counters of one combo.
type comboCounters struct {
	ops int64
	sum opCounters
}

// counters records one op's deterministic counters under its combo and
// checks them against every earlier op with the same key: an op key names
// everything that decides the answer (query, views, engine, document
// state, page position), so equal keys must give equal counters, within a
// window and across the untraced and traced windows.
func (w *window) counters(combo, key string, c opCounters) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	cc := w.combos[combo]
	if cc == nil {
		cc = &comboCounters{}
		w.combos[combo] = cc
	}
	cc.ops++
	cc.sum.add(c)
	if prev, ok := w.counterSeen[key]; ok && prev != c {
		return fmt.Errorf("counters of %s changed between runs: %+v then %+v", key, prev, c)
	}
	if ref, ok := w.counterRef[key]; ok && ref != c {
		return fmt.Errorf("tracing changed the counters of %s: %+v untraced, %+v traced", key, ref, c)
	}
	w.counterSeen[key] = c
	return nil
}

// busy is the window's wall time less the untimed account.
func (w *window) busy() time.Duration { return w.elapsed - w.untimed }

// throughput is completed query ops per busy second.
func (w *window) throughput() float64 {
	return ratio(float64(w.queries), w.busy().Seconds())
}

// endToEnd computes every end-to-end metric but setup_s and live_heap_mb.
func (w *window) endToEnd() map[string]float64 {
	q, m := w.queryLat, w.minorLat
	allocs := w.rt1.allocBytes - w.rt0.allocBytes - w.untimedAlloc
	return map[string]float64{
		"throughput_ops_s":   w.throughput(),
		"query_p50_us":       micros(quantile(q, 0.50)),
		"query_p99_us":       micros(quantile(q, 0.99)),
		"minor_p50_us":       micros(quantile(m, 0.50)),
		"minor_p95_us":       micros(quantile(m, 0.95)),
		"alloc_bytes_per_op": ratio(allocs, float64(w.ops.Load())),
	}
}

// tracedOnly names the per-layer values taken from the traced window; all
// others come from the untraced one, whose timings tracing does not
// inflate.
var tracedOnly = map[string]bool{
	"prepare.us": true, "prepare.segment_us": true, "prepare.bind_us": true,
	"result.output_us":      true,
	"enum.enumerate_us":     true,
	"engine.vj.evaluate_us": true, "engine.ts.evaluate_us": true,
	"engine.ps.evaluate_us": true, "engine.ij.evaluate_us": true,
}

// perLayer merges the per-layer values of the untraced window (plain) and
// this traced window, and adds the runtime and tracing-overhead values.
func (w *window) perLayer(plain *window) map[string]float64 {
	out := map[string]float64{}
	for k, v := range plain.layer {
		if !tracedOnly[k] {
			out[k] = v
		}
	}
	for k, v := range w.layer {
		if tracedOnly[k] {
			out[k] = v
		}
	}
	var matches float64
	for _, c := range plain.combos {
		matches += float64(c.sum.Matches)
	}
	out["result.allocs_per_match"] = ratio(plain.rt1.allocObjs-plain.rt0.allocObjs-plain.untimedObjs, matches)
	out["result.bytes_per_match"] = ratio(plain.rt1.allocBytes-plain.rt0.allocBytes-plain.untimedAlloc, matches)
	out["gc.cpu_frac"] = ratio(plain.rt1.gcCPU-plain.rt0.gcCPU, plain.rt1.totalCPU-plain.rt0.totalCPU)
	out["gc.cycles"] = plain.rt1.gcCycles - plain.rt0.gcCycles
	out["trace.overhead_frac"] = 1 - ratio(w.throughput(), plain.throughput())
	out["trace.spans"] = float64(w.spans.len())
	return out
}

// report prints the window's outcome and deterministic counter block.
func (w *window) report(out io.Writer, name, mode string) {
	att, fail := w.attempted.Load(), w.failed.Load()
	e := w.e2e
	fmt.Fprintf(out, "%s %s: %d ops in %.2fs (busy %.2fs); failed_frac=%g (%d failed of %d attempted)\n",
		name, mode, w.ops.Load(), w.elapsed.Seconds(), w.busy().Seconds(),
		ratio(float64(fail), float64(att)), fail, att)
	fmt.Fprintf(out, "  %.1f query ops/s; query latency n=%d p50=%.1fus p99=%.1fus; minor latency n=%d p50=%.1fus p95=%.1fus; %.0f B/op; live heap %.2f MB\n",
		e["throughput_ops_s"], w.queries, e["query_p50_us"], e["query_p99_us"],
		w.minors, e["minor_p50_us"], e["minor_p95_us"], e["alloc_bytes_per_op"], e["live_heap_mb"])
	for _, line := range w.counterBlock(name) {
		fmt.Fprintln(out, "  "+line)
	}
}

// counterBlock renders the summed deterministic counters per combo, one
// line each, sorted by combo.
func (w *window) counterBlock(name string) []string {
	keys := make([]string, 0, len(w.combos))
	for k := range w.combos {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, 0, len(keys))
	for _, k := range keys {
		c := w.combos[k]
		s := c.sum
		lines = append(lines, fmt.Sprintf("counters %s %s ops=%d matches=%d pages_read=%d page_hits=%d comparisons=%d elements_scanned=%d pointer_derefs=%d jumps_taken=%d jumps_refused=%d partitions=%d",
			name, k, c.ops, s.Matches, s.PagesRead, s.PageHits, s.Comparisons, s.ElementsScanned,
			s.PointerDerefs, s.JumpsTaken, s.JumpsRefused, s.Partitions))
	}
	return lines
}

// comboLayer fills the per-combo engine and store counts per op from the
// summed counters. Combo names look like "VJ+LEp".
func (w *window) comboLayer() {
	var pagesRead, pageHits, ops float64
	for combo, c := range w.combos {
		n := float64(c.ops)
		s := c.sum
		p := "engine." + comboMetricName(combo) + "."
		w.layer[p+"elements_scanned_per_op"] = float64(s.ElementsScanned) / n
		w.layer[p+"comparisons_per_op"] = float64(s.Comparisons) / n
		w.layer[p+"pointer_derefs_per_op"] = float64(s.PointerDerefs) / n
		w.layer[p+"jumps_taken_per_op"] = float64(s.JumpsTaken) / n
		w.layer[p+"jumps_refused_per_op"] = float64(s.JumpsRefused) / n
		pagesRead += float64(s.PagesRead)
		pageHits += float64(s.PageHits)
		ops += n
	}
	w.layer["store.pages_read_per_op"] = ratio(pagesRead, ops)
	w.layer["store.page_hit_ratio"] = ratio(pageHits, pageHits+pagesRead)
}

// comboMetricName turns "VJ+LEp" into "vj_lep".
func comboMetricName(combo string) string {
	out := make([]byte, 0, len(combo))
	for i := 0; i < len(combo); i++ {
		c := combo[i]
		switch {
		case c == '+':
			out = append(out, '_')
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

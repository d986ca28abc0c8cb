// Command perfbench is the repository benchmark. It builds every input
// from a seed, drives one workload through the public viewjoin API or the
// in-process vjserve handler for a fixed wall-clock window, checks every
// answer against the brute-force oracle, and prints one JSON result line.
//
//	perfbench --workload eval-full --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the same seed is run twice, untraced and then traced
// on a fresh setup; the result carries the per-layer metrics, and a span
// file plus a per-layer self-time table are written to the output
// directory. Human-readable reports go to standard error; the last line of
// standard output is the result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// ops, when positive, ends the window after that many ops instead of
	// after seconds; the determinism test uses it so two runs do the same
	// work.
	ops    int
	outDir string
}

// workloadDef is one traffic mix. setup builds the program state from the
// seed and is the only part charged to setup_s; the state then prepares
// its oracle answers (untimed) and runs measurement windows.
type workloadDef struct {
	name string
	// setup builds the state; traced turns on the program's own
	// recorders (server access and slow-query logs).
	setup func(cfg *config, traced bool) (instance, error)
}

type instance interface {
	// setupTimes reports the seconds spent in the program's setup calls,
	// split by layer (views.materialize_s, ...); "total" is setup_s.
	setupTimes() map[string]float64
	// oracle computes the reference answers; excluded from setup_s.
	oracle() error
	// describe prints the workload's sizes.
	describe(out io.Writer)
	// run measures one window, filling w.
	run(cfg *config, w *window) error
	close() error
}

// workloads lists the traffic mixes; README.md gives the reason for each.
var workloads = []workloadDef{
	{"eval-full", setupEvalFull},
	{"serve-paged", setupServePaged},
	{"update-mix", setupUpdateMix},
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload name: eval-full, serve-paged or update-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 runs untraced and traced windows and reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for span, self-time, access-log and view files")
	flag.Parse()
	cfg.trace = *trace == 1
	res, err := execute(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// execute runs the workload as cfg asks and returns its result. Any wrong
// answer or counter drift is an error: the run then prints no numbers.
func execute(cfg *config) (*result, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 && cfg.ops <= 0 {
		return nil, errors.New("--seconds must be positive")
	}

	inst, setupS, layerSetup, err := setupMedian(cfg, wl)
	if err != nil {
		return nil, err
	}
	inst.describe(os.Stderr)
	fmt.Fprintf(os.Stderr, "setup_s %.4f (median)\n", setupS)
	plain := newWindow(cfg, nil)
	if err := measure(cfg, inst, plain); err != nil {
		return nil, err
	}
	plain.report(os.Stderr, wl.name, "untraced")

	res := &result{Correct: true, Attempted: plain.attempted.Load(), Failed: plain.failed.Load(), Metrics: map[string]metric{}}
	if !cfg.trace {
		e2e := plain.e2e
		e2e["setup_s"] = setupS
		for _, m := range endToEndMetrics {
			v, ok := e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", wl.name, m.name)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
		return res, nil
	}

	// The traced run: same seed, fresh setup (update-mix mutates its
	// document, so state from the untraced window cannot be reused).
	runtime.GC()
	tinst, err := wl.setup(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	traced := newWindow(cfg, newSpanLog())
	// The traced window checks its counters against the untraced one:
	// tracing must not change any counter or chosen plan.
	traced.counterRef = plain.counterSeen
	if err := measure(cfg, tinst, traced); err != nil {
		return nil, err
	}
	traced.report(os.Stderr, wl.name, "traced")
	res.Attempted += traced.attempted.Load()
	res.Failed += traced.failed.Load()

	layer := traced.perLayer(plain)
	for k, v := range layerSetup {
		layer[k] = v
	}
	if err := traced.spans.write(cfg, wl.name, os.Stderr); err != nil {
		return nil, err
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
	}
	return res, nil
}

// setupMedian runs setup at least minSetups times, and more (up to
// maxSetups) until the repetitions add up to minSetupTime, keeping the
// last instance; it returns the median total setup time with the
// per-layer split of the median repetition.
func setupMedian(cfg *config, wl workloadDef) (instance, float64, map[string]float64, error) {
	type rep struct {
		total float64
		times map[string]float64
	}
	var reps []rep
	var inst instance
	var spent float64
	for i := 0; i < minSetups || (spent < minSetupTime && i < maxSetups); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, nil, err
			}
			inst = nil
		}
		// Each repetition starts from a collected heap, so none pays for
		// its predecessor's garbage.
		runtime.GC()
		var err error
		inst, err = wl.setup(cfg, false)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("setup: %w", err)
		}
		t := inst.setupTimes()
		reps = append(reps, rep{t["total"], t})
		spent += t["total"]
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].total < reps[j].total })
	mid := reps[len(reps)/2]
	layer := map[string]float64{}
	for k, v := range mid.times {
		if k != "total" {
			layer[k] = v
		}
	}
	return inst, mid.total, layer, nil
}

// measure computes the instance's oracle answers, runs one window with
// the runtime counters read around it, and closes the instance.
func measure(cfg *config, inst instance, w *window) (err error) {
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	if err := inst.oracle(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	runtime.GC()
	w.rt0 = readRuntime()
	w.start = time.Now()
	if err := inst.run(cfg, w); err != nil {
		return err
	}
	w.elapsed = time.Since(w.start)
	w.rt1 = readRuntime()
	if w.queries == 0 {
		return errors.New("window completed no query op")
	}
	w.e2e = w.endToEnd()
	// The benchmark's own bookkeeping grows with the op count: drop it
	// before reading the live heap, so the value is the program's state.
	// A traced run keeps the untraced counters to compare with; it
	// reports no live heap.
	w.queryLat, w.minorLat = nil, nil
	if !cfg.trace {
		w.counterSeen = nil
	}
	// Two collections: the first leaves sync.Pool victim caches alive.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.e2e["live_heap_mb"] = float64(ms.HeapAlloc) / 1e6
	return nil
}

// Setup runs at least minSetups times; a cheap setup is repeated until
// minSetupTime is spent, so its median rests on enough repetitions.
const (
	minSetups    = 5
	minSetupTime = 1.0 // seconds
	maxSetups    = 25
)

type metricDef struct {
	name, unit string
}

// endToEndMetrics and perLayerMetrics list what the result carries; they
// mirror BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"minor_p50_us", "us"},
	{"minor_p95_us", "us"},
	{"alloc_bytes_per_op", "B"},
	{"live_heap_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"prepare.us", "us"},
	{"prepare.segment_us", "us"},
	{"prepare.bind_us", "us"},
	{"result.output_us", "us"},
	{"result.allocs_per_match", "count"},
	{"result.bytes_per_match", "B"},
	{"enum.enumerate_us", "us"},
	{"enum.peak_bytes", "B"},
	{"engine.vj.evaluate_us", "us"},
	{"engine.ts.evaluate_us", "us"},
	{"engine.ps.evaluate_us", "us"},
	{"engine.ij.evaluate_us", "us"},
	{"engine.vj_lep.elements_scanned_per_op", "count"},
	{"engine.vj_lep.comparisons_per_op", "count"},
	{"engine.vj_lep.pointer_derefs_per_op", "count"},
	{"engine.vj_lep.jumps_taken_per_op", "count"},
	{"engine.vj_lep.jumps_refused_per_op", "count"},
	{"engine.vj_le.elements_scanned_per_op", "count"},
	{"engine.vj_le.comparisons_per_op", "count"},
	{"engine.vj_le.pointer_derefs_per_op", "count"},
	{"engine.vj_le.jumps_taken_per_op", "count"},
	{"engine.vj_le.jumps_refused_per_op", "count"},
	{"engine.ts_e.elements_scanned_per_op", "count"},
	{"engine.ts_e.comparisons_per_op", "count"},
	{"engine.ps_e.elements_scanned_per_op", "count"},
	{"engine.ps_e.comparisons_per_op", "count"},
	{"engine.ij_t.elements_scanned_per_op", "count"},
	{"engine.ij_t.comparisons_per_op", "count"},
	{"store.pages_read_per_op", "count"},
	{"store.page_hit_ratio", "ratio"},
	{"parallel.partitions_per_op", "count"},
	{"parallel.speedup", "ratio"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"server.overhead_us", "us"},
	{"server.response_bytes", "B"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.prepares", "count"},
	{"plancache.evictions", "count"},
	{"residency.warm_hits", "count"},
	{"residency.cold_hits", "count"},
	{"residency.cold_opens", "count"},
	{"residency.promotions", "count"},
	{"residency.demotions", "count"},
	{"residency.plan_evictions", "count"},
	{"residency.resident_bytes", "B"},
	{"update.txn_us", "us"},
	{"maintain.fast_path_ratio", "ratio"},
	{"maintain.shared_page_ratio", "ratio"},
	{"maintain.compactions", "count"},
	{"update.plans_invalidated", "count"},
	{"cursor.stale", "count"},
	{"views.materialize_s", "s"},
	{"views.save_s", "s"},
	{"views.register_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// runtimeSample is the subset of runtime/metrics the window reports.
type runtimeSample struct {
	allocBytes float64
	allocObjs  float64
	gcCPU      float64
	totalCPU   float64
	gcCycles   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), allocObjs: v(1), gcCPU: v(2), totalCPU: v(3), gcCycles: v(4)}
}

var allocNames = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// readAllocs returns the process's cumulative allocated bytes and objects;
// cheaper than readRuntime, for per-op bookkeeping.
func readAllocs() (bytes, objects float64) {
	s := make([]metrics.Sample, len(allocNames))
	copy(s, allocNames)
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// quantile returns the q-quantile of the samples by nearest rank.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

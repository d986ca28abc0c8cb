package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// countersOfRun runs one untraced window of a fixed op count and returns
// its deterministic counter block.
func countersOfRun(t *testing.T, name string, ops int) []string {
	t.Helper()
	cfg := &config{workload: name, seed: 7, ops: ops, outDir: t.TempDir()}
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wl.setup(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(cfg, nil)
	if err := measure(cfg, inst, w); err != nil {
		t.Fatal(err)
	}
	if f := w.failed.Load(); f != 0 {
		t.Fatalf("%s: %d failed ops", name, f)
	}
	return w.counterBlock(name)
}

// The single-client workloads' counters must repeat exactly for a seed:
// they are the benchmark's exact gate on the paper's cost metrics.
func TestCountersRepeat(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  int
	}{{"eval-full", 400}, {"update-mix", 300}} {
		a := countersOfRun(t, tc.name, tc.ops)
		b := countersOfRun(t, tc.name, tc.ops)
		if len(a) == 0 {
			t.Fatalf("%s: no counters", tc.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counters differ between runs of one seed:\n%v\n%v", tc.name, a, b)
		}
	}
}

// A traced run checks its counters against the untraced run's and must
// report every per-layer metric.
func TestTracedRun(t *testing.T) {
	cfg := &config{workload: "update-mix", seed: 3, ops: 200, trace: true, outDir: t.TempDir()}
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, m := range perLayerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("missing per-layer metric %s", m.name)
		}
	}
	for _, name := range []string{"update.txn_us", "trace.spans", "plancache.prepares"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// The metric lists the program prints must match BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{endToEndMetrics, spec.EndToEnd}, {perLayerMetrics, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics, BENCHMARK.json lists %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("metric %d is %s (%s), BENCHMARK.json has %s (%s)", i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

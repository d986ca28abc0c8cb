// Command vjbenchcmp diffs two vjbench or vjload JSON manifests. The
// schema is auto-detected from the files; both must carry the same one.
//
// For viewjoin/bench/v1 it prints the per-experiment wall-time and
// allocation deltas and exits non-zero when any experiment present in both
// runs regressed by more than the threshold (default 10%) on either axis.
// It also gates the paper's deterministic cost counters exactly, row by
// row (rows keyed by experiment, dataset, query, combo, variant and
// series): any change in matches fails, and so does any change in
// scanned, comparisons, derefs or pagesRead — except on partitioned runs
// under a first-k quota (variant "K=<n>" with n > 1, series "k=<m>"),
// where the point a partition stops scanning depends on scheduling.
//
// For viewjoin/load/v1 it diffs the serving latency quantiles
// (p50/p95/p99), the time-to-first-match quantiles, and the achieved QPS:
// a quantile growing past the threshold, or throughput dropping past it,
// is a regression.
//
// Usage:
//
//	vjbenchcmp old.json new.json
//	vjbenchcmp -threshold 0.25 old.json new.json
//	vjbenchcmp baseline.load.json fresh.load.json
//
// Experiments present in only one manifest are reported as added/removed,
// never as regressions. Allocation counts are only compared when both
// manifests carry them (older manifests predate the field); unlike wall
// time they are near-deterministic, so an alloc regression is a real code
// change, not noise. Wall times and serving latencies are noisy; the
// threshold is meant to catch structural slowdowns, not scheduler jitter —
// rerun before trusting a marginal failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

const (
	benchSchema = "viewjoin/bench/v1"
	loadSchema  = "viewjoin/load/v1"
)

type benchManifest struct {
	Schema      string `json:"schema"`
	GitSHA      string `json:"gitSHA"`
	Experiments []struct {
		Name      string `json:"name"`
		WallNanos int64  `json:"wallNanos"`
		Allocs    uint64 `json:"allocs"`
	} `json:"experiments"`
	Rows []benchRow `json:"rows"`
}

// benchRow is the part of a bench/v1 row the counter gate reads: its key
// and the deterministic counters (absent counters decode as zero).
type benchRow struct {
	Experiment  string `json:"experiment"`
	Dataset     string `json:"dataset"`
	Query       string `json:"query"`
	Combo       string `json:"combo"`
	Variant     string `json:"variant"`
	Series      string `json:"series"`
	Matches     int64  `json:"matches"`
	Scanned     int64  `json:"scanned"`
	Comparisons int64  `json:"comparisons"`
	Derefs      int64  `json:"derefs"`
	PagesRead   int64  `json:"pagesRead"`
}

func (r benchRow) key() string {
	return strings.Join([]string{r.Experiment, r.Dataset, r.Query, r.Combo, r.Variant, r.Series}, "|")
}

// scheduled reports whether the row is a partitioned run under a first-k
// quota: its partitions stop scanning once the quota is met, at a point
// that depends on how the workers were scheduled, so only its match count
// is deterministic.
func (r benchRow) scheduled() bool {
	var parts, k int
	if _, err := fmt.Sscanf(r.Variant, "K=%d", &parts); err != nil || parts <= 1 {
		return false
	}
	_, err := fmt.Sscanf(r.Series, "k=%d", &k)
	return err == nil
}

// counterChanges compares the deterministic counters of the rows present
// in both manifests and describes every change the gate refuses.
func counterChanges(old, neu []benchRow) []string {
	oldBy := make(map[string]benchRow, len(old))
	for _, r := range old {
		oldBy[r.key()] = r
	}
	var out []string
	for _, n := range neu {
		o, ok := oldBy[n.key()]
		if !ok {
			continue
		}
		check := func(name string, ov, nv int64) {
			if ov != nv {
				out = append(out, fmt.Sprintf("%s: %s %d -> %d", n.key(), name, ov, nv))
			}
		}
		check("matches", o.Matches, n.Matches)
		if n.scheduled() {
			continue
		}
		check("scanned", o.Scanned, n.Scanned)
		check("comparisons", o.Comparisons, n.Comparisons)
		check("derefs", o.Derefs, n.Derefs)
		check("pagesRead", o.PagesRead, n.PagesRead)
	}
	return out
}

type loadManifest struct {
	Schema       string        `json:"schema"`
	GitSHA       string        `json:"gitSHA"`
	Sent         int64         `json:"sent"`
	Completed    int64         `json:"completed"`
	Shed         int64         `json:"shed"`
	Timeouts     int64         `json:"timeouts"`
	Errors       int64         `json:"errors"`
	AchievedQPS  float64       `json:"achievedQPS"`
	LatencyUS    loadQuantiles `json:"latencyUS"`
	FirstMatchUS loadQuantiles `json:"firstMatchUS"`
}

type loadQuantiles struct {
	N      int64 `json:"n"`
	P50US  int64 `json:"p50US"`
	P95US  int64 `json:"p95US"`
	P99US  int64 `json:"p99US"`
	P999US int64 `json:"p999US"`
}

// readSchema peeks at the manifest's schema field without committing to a
// layout.
func readSchema(path string) (string, []byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(buf, &probe); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	return probe.Schema, buf, nil
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "regression threshold as a fraction of the old value")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: vjbenchcmp [-threshold f] old.json new.json")
		os.Exit(2)
	}
	oldSchema, oldBuf, err := readSchema(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "vjbenchcmp:", err)
		os.Exit(2)
	}
	newSchema, newBuf, err := readSchema(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "vjbenchcmp:", err)
		os.Exit(2)
	}
	if oldSchema != newSchema {
		fmt.Fprintf(os.Stderr, "vjbenchcmp: schema mismatch: %s is %q, %s is %q\n",
			flag.Arg(0), oldSchema, flag.Arg(1), newSchema)
		os.Exit(2)
	}

	var regressions int
	switch oldSchema {
	case benchSchema:
		regressions = compareBench(oldBuf, newBuf, *threshold)
	case loadSchema:
		regressions = compareLoad(oldBuf, newBuf, *threshold)
	default:
		fmt.Fprintf(os.Stderr, "vjbenchcmp: unsupported schema %q (want %q or %q)\n",
			oldSchema, benchSchema, loadSchema)
		os.Exit(2)
	}

	if regressions > 0 {
		fmt.Printf("\n%d regression(s): wall time or allocs past %.0f%%, or a deterministic counter changed\n", regressions, *threshold*100)
		os.Exit(1)
	}
	fmt.Println("\nno regressions")
}

func compareBench(oldBuf, newBuf []byte, threshold float64) int {
	var old, neu benchManifest
	mustUnmarshal(oldBuf, &old)
	mustUnmarshal(newBuf, &neu)

	fmt.Printf("old: %s (%s)\nnew: %s (%s)\n\n",
		flag.Arg(0), short(old.GitSHA), flag.Arg(1), short(neu.GitSHA))
	fmt.Printf("%-12s %12s %12s %9s %14s %14s %9s\n",
		"experiment", "old", "new", "delta", "old allocs", "new allocs", "delta")

	type oldEntry struct {
		wall   int64
		allocs uint64
	}
	oldBy := make(map[string]oldEntry, len(old.Experiments))
	for _, e := range old.Experiments {
		oldBy[e.Name] = oldEntry{e.WallNanos, e.Allocs}
	}
	seen := make(map[string]bool, len(neu.Experiments))
	regressions := 0
	for _, e := range neu.Experiments {
		seen[e.Name] = true
		o, ok := oldBy[e.Name]
		if !ok {
			fmt.Printf("%-12s %12s %12s %9s %14s %14s %9s\n",
				e.Name, "-", fmtNanos(e.WallNanos), "added", "-", fmtAllocs(e.Allocs), "")
			continue
		}
		wallDelta := float64(e.WallNanos-o.wall) / float64(o.wall)
		mark := ""
		if wallDelta > threshold {
			mark = "  REGRESSION(time)"
			regressions++
		}
		// Allocs are gated only when both runs recorded them: a zero count in
		// the baseline means the manifest predates the field. A zero count in
		// the NEW manifest against a nonzero baseline is different — the
		// metric went missing (a field rename, a broken measurement), and
		// silently skipping it would let a real regression hide behind the
		// hole — so it warns loudly instead of gating.
		allocsStr, allocsDeltaStr := "-", ""
		if o.allocs > 0 && e.Allocs > 0 {
			allocsDelta := float64(e.Allocs) - float64(o.allocs)
			rel := allocsDelta / float64(o.allocs)
			allocsStr = fmtAllocs(e.Allocs)
			allocsDeltaStr = fmt.Sprintf("%+8.1f%%", rel*100)
			if rel > threshold {
				mark += "  REGRESSION(allocs)"
				regressions++
			}
		} else if o.allocs > 0 {
			mark += "  MISSING(allocs)"
			fmt.Fprintf(os.Stderr, "vjbenchcmp: WARNING: experiment %q has allocs=%d in the baseline but none in the new manifest — metric went missing, not compared\n",
				e.Name, o.allocs)
		} else if e.Allocs > 0 {
			allocsStr = fmtAllocs(e.Allocs)
		}
		fmt.Printf("%-12s %12s %12s %+8.1f%% %14s %14s %9s%s\n",
			e.Name, fmtNanos(o.wall), fmtNanos(e.WallNanos), wallDelta*100,
			fmtAllocs(o.allocs), allocsStr, allocsDeltaStr, mark)
	}
	for _, e := range old.Experiments {
		if !seen[e.Name] {
			fmt.Printf("%-12s %12s %12s %9s\n", e.Name, fmtNanos(e.WallNanos), "-", "removed")
		}
	}
	changes := counterChanges(old.Rows, neu.Rows)
	fmt.Printf("\ncounters: %d rows old, %d rows new, %d changed\n", len(old.Rows), len(neu.Rows), len(changes))
	for _, c := range changes {
		fmt.Printf("  COUNTER %s\n", c)
	}
	return regressions + len(changes)
}

// compareLoad diffs two load/v1 manifests: latency quantiles regress
// upward, achieved throughput regresses downward. A baseline quantile of
// zero (no completed requests, or a manifest predating the field) cannot
// be compared and is skipped; a NEW quantile of zero against a nonzero
// baseline means the metric went missing and warns loudly — a latency
// that "dropped to zero" is a measurement hole, not an improvement.
func compareLoad(oldBuf, newBuf []byte, threshold float64) int {
	var old, neu loadManifest
	mustUnmarshal(oldBuf, &old)
	mustUnmarshal(newBuf, &neu)

	fmt.Printf("old: %s (%s)\nnew: %s (%s)\n\n",
		flag.Arg(0), short(old.GitSHA), flag.Arg(1), short(neu.GitSHA))
	fmt.Printf("%-14s %14s %14s %9s\n", "metric", "old", "new", "delta")

	regressions := 0
	row := func(name string, o, n float64, fmtVal func(float64) string, worseWhenUp bool) {
		if o == 0 {
			fmt.Printf("%-14s %14s %14s %9s\n", name, "-", fmtVal(n), "")
			return
		}
		if n == 0 {
			fmt.Printf("%-14s %14s %14s %9s  MISSING\n", name, fmtVal(o), "-", "")
			fmt.Fprintf(os.Stderr, "vjbenchcmp: WARNING: metric %q is %s in the baseline but zero/absent in the new manifest — metric went missing, not compared\n",
				name, fmtVal(o))
			return
		}
		rel := (n - o) / o
		mark := ""
		if (worseWhenUp && rel > threshold) || (!worseWhenUp && -rel > threshold) {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Printf("%-14s %14s %14s %+8.1f%%%s\n", name, fmtVal(o), fmtVal(n), rel*100, mark)
	}
	us := func(v float64) string { return fmtNanos(int64(v) * 1000) }
	qps := func(v float64) string { return fmt.Sprintf("%.1f/s", v) }
	count := func(v float64) string { return fmt.Sprintf("%.0f", v) }

	row("p50", float64(old.LatencyUS.P50US), float64(neu.LatencyUS.P50US), us, true)
	row("p95", float64(old.LatencyUS.P95US), float64(neu.LatencyUS.P95US), us, true)
	row("p99", float64(old.LatencyUS.P99US), float64(neu.LatencyUS.P99US), us, true)
	// Time-to-first-match gates like the completion latencies: a paging
	// client's perceived latency regressing matters even when the full-run
	// quantiles hold. Zero baselines (manifest predates the field, or no
	// request produced a match) skip the gate via row's o==0 path.
	row("ttfm p50", float64(old.FirstMatchUS.P50US), float64(neu.FirstMatchUS.P50US), us, true)
	row("ttfm p95", float64(old.FirstMatchUS.P95US), float64(neu.FirstMatchUS.P95US), us, true)
	row("ttfm p99", float64(old.FirstMatchUS.P99US), float64(neu.FirstMatchUS.P99US), us, true)
	row("achieved qps", old.AchievedQPS, neu.AchievedQPS, qps, false)
	// Informational rows: counts depend on the offered schedule, not code
	// quality, so they never gate.
	fmt.Printf("%-14s %14s %14s\n", "completed", count(float64(old.Completed)), count(float64(neu.Completed)))
	fmt.Printf("%-14s %14s %14s\n", "shed", count(float64(old.Shed)), count(float64(neu.Shed)))
	fmt.Printf("%-14s %14s %14s\n", "errors", count(float64(old.Errors+old.Timeouts)), count(float64(neu.Errors+neu.Timeouts)))
	return regressions
}

func mustUnmarshal(buf []byte, v any) {
	if err := json.Unmarshal(buf, v); err != nil {
		fmt.Fprintln(os.Stderr, "vjbenchcmp:", err)
		os.Exit(2)
	}
}

func fmtNanos(n int64) string {
	d := time.Duration(n)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func fmtAllocs(n uint64) string {
	switch {
	case n == 0:
		return "-"
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

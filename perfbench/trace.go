package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or a part of
// such a call that the layer itself reported (Derived: the program gave a
// duration, not a start, so the span is laid out after its preceding
// siblings within the parent).
type span struct {
	Op      int64  `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for an op's root span
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced window began
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// spanLog keeps a traced window's spans in memory until the run ends. A
// nil *spanLog records nothing, so untraced code paths call it freely.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its id (-1 when l is nil).
func (l *spanLog) add(op int64, parent int, name string, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(l.t0)), EndNS: int64(end.Sub(l.t0))})
	return id
}

// open starts a span that close ends, for a parent whose children are
// recorded before it ends; it returns -1 when l is nil.
func (l *spanLog) open(op int64, parent int, name string) int {
	if l == nil {
		return -1
	}
	now := time.Now()
	return l.add(op, parent, name, now, now)
}

// close ends a span opened with open.
func (l *spanLog) close(id int) {
	if l == nil || id < 0 {
		return
	}
	end := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id].EndNS = end
	l.mu.Unlock()
}

// derived records children of parent from durations the program reported,
// laid out back to back from start in the given order. Zero durations are
// skipped.
func (l *spanLog) derived(op int64, parent int, start time.Time, names []string, durs []time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	at := int64(start.Sub(l.t0))
	for i, d := range durs {
		if d <= 0 {
			continue
		}
		l.spans = append(l.spans, span{Op: op, ID: len(l.spans), Parent: parent, Name: names[i],
			StartNS: at, EndNS: at + int64(d), Derived: true})
		at += int64(d)
	}
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name          string
	count         int64
	total, self   time.Duration
	derived       bool
	shareOfOpRoot float64
}

// selfTimes aggregates spans by name: a span's self time is its duration
// less the time its children cover (children of one span never overlap:
// each op's calls are sequential).
func (l *spanLog) selfTimes() []selfRow {
	childTime := make([]int64, len(l.spans))
	var rootTotal int64
	for _, s := range l.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.EndNS - s.StartNS
		} else {
			rootTotal += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*selfRow{}
	for i, s := range l.spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name, derived: s.Derived}
			byName[s.Name] = r
		}
		d := s.EndNS - s.StartNS
		self := d - childTime[i]
		if self < 0 {
			self = 0
		}
		r.count++
		r.total += time.Duration(d)
		r.self += time.Duration(self)
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		r.shareOfOpRoot = ratio(float64(r.self), float64(rootTotal))
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

// write stores the spans as JSON lines and the self-time table as text in
// the output directory, and prints the table to report.
func (l *spanLog) write(cfg *config, workload string, report io.Writer) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", workload, cfg.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	tf, err := os.Create(base + ".selftime.txt")
	if err != nil {
		return err
	}
	w := io.MultiWriter(tf, report)
	fmt.Fprintf(w, "self time per layer, %s traced window (%d spans; * = reported by the program, not timed by the benchmark)\n", workload, len(l.spans))
	fmt.Fprintf(w, "%-28s %9s %12s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self_us/call", "self%")
	for _, r := range l.selfTimes() {
		name := r.name
		if r.derived {
			name += " *"
		}
		fmt.Fprintf(w, "%-28s %9d %12.1f %12.1f %12.2f %7.1f%%\n", name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6, float64(r.self)/1e3/float64(r.count), 100*r.shareOfOpRoot)
	}
	fmt.Fprintf(report, "spans: %s.spans.jsonl\n", base)
	return tf.Close()
}

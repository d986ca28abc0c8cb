package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"viewjoin"
	"viewjoin/internal/obs"
)

// This file is the in-process client shared by serve-paged and update-mix:
// it calls the vjserve handler directly (no sockets), times each request
// inside the handler (request bytes in, response bytes out), and reads the
// server's /metrics, access log and slow-query log. The client's own
// request encoding and response decoding are not part of a request's
// latency; a single-client window also leaves them out of its busy time
// and allocation counts.

// pageLimit is the page size of every paginated request.
const pageLimit = 20

type queryReq struct {
	Tenant   string   `json:"tenant,omitempty"`
	Document string   `json:"document"`
	Query    string   `json:"query"`
	Views    []string `json:"views"`
	Limit    int      `json:"limit"`
	Cursor   string   `json:"cursor,omitempty"`
}

type nodeJSON struct {
	Tag   string `json:"tag"`
	Start int32  `json:"start"`
	End   int32  `json:"end"`
	Level int32  `json:"level"`
}

type statsJSON struct {
	ElementsScanned int64 `json:"elements_scanned"`
	Comparisons     int64 `json:"comparisons"`
	PointerDerefs   int64 `json:"pointer_derefs"`
	PagesRead       int64 `json:"pages_read"`
	PageHits        int64 `json:"page_hits"`
	JumpsTaken      int64 `json:"jumps_taken"`
	JumpsRefused    int64 `json:"jumps_refused"`
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
	Partitions      int   `json:"partitions"`
}

type queryResp struct {
	Engine     string    `json:"engine"`
	Views      []string  `json:"views"`
	Cache      string    `json:"cache"`
	MatchCount int       `json:"match_count"`
	Cursor     string    `json:"cursor"`
	Stats      statsJSON `json:"stats"`
	DurationUS int64     `json:"duration_us"`
	// Matches stays encoded: the client checks it byte for byte against
	// the oracle rows' encoding instead of decoding every node.
	Matches json.RawMessage `json:"matches"`
}

func (r *queryResp) runTime() (string, time.Duration) {
	return "server.run", time.Duration(r.DurationUS) * time.Microsecond
}

func (r *queryResp) counters() opCounters {
	s := r.Stats
	return opCounters{
		Matches:         int64(r.MatchCount),
		PagesRead:       s.PagesRead,
		PageHits:        s.PageHits,
		Comparisons:     s.Comparisons,
		ElementsScanned: s.ElementsScanned,
		PointerDerefs:   s.PointerDerefs,
		JumpsTaken:      s.JumpsTaken,
		JumpsRefused:    s.JumpsRefused,
		PeakMemoryBytes: s.PeakMemoryBytes,
		Partitions:      int64(s.Partitions),
	}
}

// call is one request's outcome: status, time inside the handler,
// response size and body.
type call struct {
	status  int
	handler time.Duration
	bytes   int
	body    []byte
}

// timedResp is a response body that reports the server's own time for the
// request's main work.
type timedResp interface {
	runTime() (string, time.Duration)
}

// post encodes body, serves it through h and decodes a 200 response into
// out. Spans (when traced) cover the client's encode and decode and the
// handler call, with the time the response reports as the handler's
// derived child.
func post(w *window, op int64, parent int, h http.Handler, path string, body, out any) (call, error) {
	um := w.beginClient()
	t0 := um.t
	buf, err := json.Marshal(body)
	if err != nil {
		return call{}, err
	}
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	if err != nil {
		return call{}, err
	}
	rec := httptest.NewRecorder()
	w.endClient(um)
	t1 := time.Now()
	h.ServeHTTP(rec, req)
	t2 := time.Now()
	um = w.beginClient()
	c := call{status: rec.Code, handler: t2.Sub(t1), bytes: rec.Body.Len(), body: rec.Body.Bytes()}
	if c.status == http.StatusOK && out != nil {
		if err := json.Unmarshal(c.body, out); err != nil {
			return c, fmt.Errorf("%s: decode response: %w", path, err)
		}
	}
	t3 := time.Now()
	w.endClient(um)
	if w.spans != nil {
		w.spans.add(op, parent, "client.encode", t0, t1)
		hs := w.spans.add(op, parent, "server.ServeHTTP "+path, t1, t2)
		if tr, ok := out.(timedResp); ok && c.status == http.StatusOK {
			name, d := tr.runTime()
			w.spans.derived(op, hs, t1, []string{name}, []time.Duration{d})
		}
		w.spans.add(op, parent, "client.decode", t2, t3)
	}
	return c, nil
}

// get serves a GET and decodes the JSON body into out.
func get(h http.Handler, path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	PlanCache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Prepares  int64 `json:"prepares"`
	} `json:"plan_cache"`
	Residency struct {
		ResidentBytes int64 `json:"resident_bytes"`
		Promotions    int64 `json:"promotions"`
		Demotions     int64 `json:"demotions"`
		PlanEvictions int64 `json:"plan_evictions"`
		WarmHits      int64 `json:"warm_hits"`
		ColdHits      int64 `json:"cold_hits"`
		ColdOpens     int64 `json:"cold_opens"`
	} `json:"residency"`
}

// serverLayer fills the plan-cache and residency values from the /metrics
// deltas across the window. extraPrepares are prepares the benchmark's own
// checks caused (cache-bypassing /debug/trace requests).
func serverLayer(w *window, before, after *serverMetrics, extraPrepares int64) {
	pc0, pc1 := before.PlanCache, after.PlanCache
	hits, misses := float64(pc1.Hits-pc0.Hits), float64(pc1.Misses-pc0.Misses)
	w.layer["plancache.hit_ratio"] = ratio(hits, hits+misses)
	w.layer["plancache.prepares"] = float64(pc1.Prepares - pc0.Prepares - extraPrepares)
	w.layer["plancache.evictions"] = float64(pc1.Evictions - pc0.Evictions)
	r0, r1 := before.Residency, after.Residency
	w.layer["residency.warm_hits"] = float64(r1.WarmHits - r0.WarmHits)
	w.layer["residency.cold_hits"] = float64(r1.ColdHits - r0.ColdHits)
	w.layer["residency.cold_opens"] = float64(r1.ColdOpens - r0.ColdOpens)
	w.layer["residency.promotions"] = float64(r1.Promotions - r0.Promotions)
	w.layer["residency.demotions"] = float64(r1.Demotions - r0.Demotions)
	w.layer["residency.plan_evictions"] = float64(r1.PlanEvictions - r0.PlanEvictions)
	w.layer["residency.resident_bytes"] = float64(r1.ResidentBytes)
}

// requestStats accumulates the serving layer's per-request numbers.
type requestStats struct {
	mu       sync.Mutex
	n        int64
	overhead time.Duration // handler wall time less the reported run time
	bytes    int64
}

func (s *requestStats) observe(c call, durationUS int64) {
	s.mu.Lock()
	s.n++
	s.overhead += c.handler - time.Duration(durationUS)*time.Microsecond
	s.bytes += int64(c.bytes)
	s.mu.Unlock()
}

func (s *requestStats) fill(w *window) {
	w.layer["server.overhead_us"] = micros(s.overhead) / float64(s.n)
	w.layer["server.response_bytes"] = float64(s.bytes) / float64(s.n)
}

// syncBuffer is the access-log sink of a traced server.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// serverTrace reads the traced server's records at the end of a window:
// the engine phases of the requests in the slow-query log's recent ring
// and the slowest set (the per-layer phase values), and the access log,
// which is written out next to the span file.
func serverTrace(w *window, h http.Handler, access *syncBuffer, cfg *config, workload string) error {
	var snap struct {
		Slowest []struct {
			WallUS int64       `json:"wall_us"`
			Trace  *obs.Report `json:"trace"`
		} `json:"slowest"`
		Recent []struct {
			Trace *obs.Report `json:"trace"`
		} `json:"recent"`
	}
	if err := get(h, "/debug/slowlog", &snap); err != nil {
		return err
	}
	var n float64
	phases := map[string]float64{}
	for _, e := range snap.Recent {
		if e.Trace == nil {
			continue
		}
		n++
		for _, p := range e.Trace.Phases {
			phases[p.Phase] += float64(p.Nanos) / 1e3
		}
	}
	w.layer["engine.vj.evaluate_us"] = ratio(phases["evaluate"], n)
	w.layer["enum.enumerate_us"] = ratio(phases["enumerate"], n)
	w.layer["result.output_us"] = ratio(phases["output"], n)
	if len(snap.Slowest) > 0 && snap.Slowest[0].Trace != nil {
		fmt.Fprintf(os.Stderr, "slowest request: %dus wall;", snap.Slowest[0].WallUS)
		for _, p := range snap.Slowest[0].Trace.Phases {
			fmt.Fprintf(os.Stderr, " %s=%dus", p.Phase, p.Nanos/1000)
		}
		fmt.Fprintln(os.Stderr)
	}

	access.mu.Lock()
	defer access.mu.Unlock()
	lines := bytes.Count(access.buf.Bytes(), []byte{'\n'})
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s-seed%d.access.jsonl", cfg.outDir, workload, cfg.seed)
	if err := os.WriteFile(path, access.buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "access log: %d lines in %s\n", lines, path)
	return nil
}

// uniqueViews returns the distinct covering views of the queries, keyed by
// canonical pattern, in first-use order.
func uniqueViews(qs []*paperQuery) []*viewjoin.Query {
	seen := map[string]bool{}
	var out []*viewjoin.Query
	for _, pq := range qs {
		for _, v := range pq.views {
			if k := v.String(); !seen[k] {
				seen[k] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// viewNames renders a query's covering views as request view names.
func viewNames(pq *paperQuery) []string {
	out := make([]string, len(pq.views))
	for i, v := range pq.views {
		out[i] = v.String()
	}
	return out
}

// encodeRows renders oracle rows exactly as the server encodes result
// rows, one encoding per row.
func encodeRows(rows [][]viewjoin.Node) ([][]byte, error) {
	out := make([][]byte, len(rows))
	for i, row := range rows {
		js := make([]nodeJSON, len(row))
		for j, n := range row {
			js[j] = nodeJSON{Tag: n.Tag, Start: n.Start, End: n.End, Level: n.Level}
		}
		b, err := json.Marshal(js)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// samePage checks a served page's encoded rows against the oracle rows
// from offset on and returns how many rows the page holds.
func samePage(page json.RawMessage, oracle [][]byte, offset int) (int, error) {
	if len(page) == 0 || string(page) == "null" {
		return 0, nil
	}
	if page[0] != '[' {
		return 0, fmt.Errorf("matches is not an array")
	}
	p, n := 1, 0
	for {
		if offset+n >= len(oracle) {
			return n, fmt.Errorf("page has more than the oracle's %d rows", len(oracle))
		}
		want := oracle[offset+n]
		if !bytes.HasPrefix(page[p:], want) {
			end := p + len(want)
			if end > len(page) {
				end = len(page)
			}
			return n, fmt.Errorf("row %d is %s, oracle %s", offset+n, page[p:end], want)
		}
		p += len(want)
		n++
		if p < len(page) && page[p] == ']' {
			return n, nil
		}
		if p >= len(page) || page[p] != ',' {
			return n, fmt.Errorf("malformed matches after row %d", offset+n-1)
		}
		p++
	}
}

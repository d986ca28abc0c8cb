package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"viewjoin"
	"viewjoin/internal/server"
)

// serve-paged: two clients drive the in-process vjserve handler over six
// tenants, each with its own XMark and Nasa documents. Every view is saved
// with SaveViewFile and registered with AddTenantViewFile under a
// resident-bytes cap of about half the total view footprint, so popular
// tenants stay warm and the tail is served cold from mmap. Tenant
// popularity is Zipf-skewed. Nine in ten requests are 20-row pages that
// follow the returned cursor for a geometric number of pages; one in ten
// is a count-only full query. A page costs far less than a full run, so
// per-request overhead dominates.

// serveScales sizes the tenants' documents, in popularity order: XMark at
// the scale, Nasa at the scale times 4,000 datasets.
var serveScales = []float64{0.3, 0.5, 0.1, 0.4, 0.2, 0.15}

const (
	serveClients = 2
	// serveWorkers matches the client count, so no request is ever shed.
	serveWorkers    = 2
	serveCacheSize  = 256 // > 6 tenants x 22 queries: the plan working set fits
	serveZipfS      = 1.5
	serveCountFrac  = 0.1
	servePageStopP  = 1.0 / 3 // a walk stops after each page with this probability
	serveSlowlogLen = 64
)

type serveTenant struct {
	name    string
	queries []*paperQuery
}

type servePaged struct {
	seed      int64
	dir       string
	srv       *server.Server
	h         http.Handler
	access    *syncBuffer
	tenants   []*serveTenant
	viewFiles int
	viewBytes int64
	times     map[string]float64
}

func setupServePaged(cfg *config, traced bool) (instance, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "views-")
	if err != nil {
		return nil, err
	}
	s := &servePaged{seed: cfg.seed, dir: dir, times: map[string]float64{}}
	var materialize, save, register time.Duration
	t0 := time.Now()
	type saved struct {
		tenant, doc string
		d           *viewjoin.Document
		paths       []string
	}
	var docs []saved
	for i, scale := range serveScales {
		t := &serveTenant{name: fmt.Sprintf("t%d", i)}
		xm := viewjoin.GenerateXMark(scale)
		ns := viewjoin.GenerateNasa(int(scale * evalNasaDatasets))
		if t.queries, err = paperQueries(xm, ns); err != nil {
			return nil, err
		}
		for _, d := range []struct {
			name string
			doc  *viewjoin.Document
		}{{"xmark", xm}, {"nasa", ns}} {
			var qs []*paperQuery
			for _, pq := range t.queries {
				if pq.doc == d.doc {
					qs = append(qs, pq)
				}
			}
			m0 := time.Now()
			mvs, err := d.doc.MaterializeViews(uniqueViews(qs), viewjoin.SchemeLEp)
			if err != nil {
				return nil, err
			}
			materialize += time.Since(m0)
			sv := saved{tenant: t.name, doc: d.name, d: d.doc}
			s0 := time.Now()
			for j, mv := range mvs {
				path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.vjview", t.name, d.name, j))
				if _, err := mv.SaveViewFile(path); err != nil {
					return nil, err
				}
				s.viewFiles++
				s.viewBytes += mv.FootprintBytes()
				sv.paths = append(sv.paths, path)
			}
			save += time.Since(s0)
			docs = append(docs, sv)
		}
		s.tenants = append(s.tenants, t)
	}

	scfg := server.Config{
		Workers:          serveWorkers,
		CacheSize:        serveCacheSize,
		MaxResidentBytes: s.viewBytes / 2,
	}
	if traced {
		s.access = &syncBuffer{}
		scfg.AccessLog = s.access
		scfg.SlowlogSize = serveSlowlogLen
	}
	r0 := time.Now()
	s.srv = server.New(scfg)
	for _, sv := range docs {
		if err := s.srv.AddTenantDocument(sv.tenant, sv.doc, sv.d); err != nil {
			return nil, err
		}
		for _, p := range sv.paths {
			if err := s.srv.AddTenantViewFile(sv.tenant, sv.doc, p); err != nil {
				return nil, err
			}
		}
	}
	s.h = s.srv.Handler()
	register = time.Since(r0)

	// Warm the plan cache: one single-row page per tenant and query.
	w := newWindow(cfg, nil)
	for _, t := range s.tenants {
		for _, pq := range t.queries {
			var resp queryResp
			c, err := post(w, 0, -1, s.h, "/query", s.request(t, pq, 1, ""), &resp)
			if err != nil {
				return nil, err
			}
			if c.status != http.StatusOK {
				return nil, fmt.Errorf("warm %s %s: status %d: %s", t.name, pq.name, c.status, c.body)
			}
		}
	}
	s.times["total"] = time.Since(t0).Seconds()
	s.times["views.materialize_s"] = materialize.Seconds()
	s.times["views.save_s"] = save.Seconds()
	s.times["views.register_s"] = register.Seconds()
	return s, nil
}

func (s *servePaged) request(t *serveTenant, pq *paperQuery, limit int, cursor string) queryReq {
	return queryReq{Tenant: t.name, Document: pq.docName, Query: pq.q.String(), Views: viewNames(pq), Limit: limit, Cursor: cursor}
}

func (s *servePaged) setupTimes() map[string]float64 { return s.times }

func (s *servePaged) describe(out io.Writer) {
	var keys int
	for i, t := range s.tenants {
		xm, ns := t.queries[0].doc, t.queries[len(t.queries)-1].doc
		fmt.Fprintf(out, "serve-paged tenant %s: xmark scale %g = %d nodes, nasa %d datasets = %d nodes\n",
			t.name, serveScales[i], xm.NumNodes(), int(serveScales[i]*evalNasaDatasets), ns.NumNodes())
		keys += len(t.queries)
	}
	fmt.Fprintf(out, "serve-paged: %d view files, %d bytes; MaxResidentBytes %d; %d plan keys, plan cache capacity %d\n",
		s.viewFiles, s.viewBytes, s.viewBytes/2, keys, serveCacheSize)
}

func (s *servePaged) oracle() error {
	for _, t := range s.tenants {
		for _, pq := range t.queries {
			pq.oracle = viewjoin.EvaluateDirect(pq.doc, pq.q).Matches
			var err error
			if pq.oracleJSON, err = encodeRows(pq.oracle); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *servePaged) close() error {
	err := s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *servePaged) run(cfg *config, w *window) error {
	var before, after serverMetrics
	if err := get(s.h, "/metrics", &before); err != nil {
		return err
	}
	var stats requestStats
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.client(w, rand.New(rand.NewSource(s.seed*7919+int64(c))), &stats)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := get(s.h, "/metrics", &after); err != nil {
		return err
	}
	serverLayer(w, &before, &after, 0)
	stats.fill(w)
	w.comboLayer()
	if w.spans != nil {
		return serverTrace(w, s.h, s.access, cfg, "serve-paged")
	}
	return nil
}

// client is one closed-loop client: it waits for each response before
// sending the next request.
func (s *servePaged) client(w *window, rng *rand.Rand, stats *requestStats) error {
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(s.tenants)-1))
	for w.more() {
		t := s.tenants[zipf.Uint64()]
		pq := t.queries[rng.Intn(len(t.queries))]
		if rng.Float64() < serveCountFrac {
			if err := s.count(w, t, pq, stats); err != nil {
				return err
			}
			continue
		}
		pages := 1
		for rng.Float64() >= servePageStopP {
			pages++
		}
		if err := s.walk(w, t, pq, pages, stats); err != nil {
			return err
		}
	}
	return nil
}

// count runs a count-only full query and checks its match count.
func (s *servePaged) count(w *window, t *serveTenant, pq *paperQuery, stats *requestStats) error {
	id := w.nextOp()
	w.attempted.Add(1)
	var resp queryResp
	sp := w.spans.open(id, -1, "op.count")
	c, err := post(w, id, sp, s.h, "/query", s.request(t, pq, 0, ""), &resp)
	if err != nil {
		return err
	}
	if c.status != http.StatusOK {
		return s.failure(w, t, pq, c)
	}
	w.done(c.handler, true, true)
	stats.observe(c, resp.DurationUS)
	if resp.MatchCount != len(pq.oracle) {
		return fmt.Errorf("serve-paged %s %s: count-only query returned %d matches, oracle %d", t.name, pq.name, resp.MatchCount, len(pq.oracle))
	}
	w.spans.close(sp)
	return w.counters("VJ+LEp", t.name+"|"+pq.name+"|count", resp.counters())
}

// walk follows the cursor for up to pages pages, then checks the
// concatenated rows against the oracle's prefix.
func (s *servePaged) walk(w *window, t *serveTenant, pq *paperQuery, pages int, stats *requestStats) error {
	cursor := ""
	offset := 0
	for p := 0; p < pages; p++ {
		id := w.nextOp()
		w.attempted.Add(1)
		var resp queryResp
		sp := w.spans.open(id, -1, "op.page")
		c, err := post(w, id, sp, s.h, "/query", s.request(t, pq, pageLimit, cursor), &resp)
		if err != nil {
			return err
		}
		if c.status != http.StatusOK {
			return s.failure(w, t, pq, c)
		}
		w.done(c.handler, true, false)
		stats.observe(c, resp.DurationUS)
		n, err := samePage(resp.Matches, pq.oracleJSON, offset)
		if err != nil {
			return fmt.Errorf("serve-paged %s %s page %d: wrong answer: %v", t.name, pq.name, p, err)
		}
		if n != resp.MatchCount {
			return fmt.Errorf("serve-paged %s %s page %d: %d rows but match_count %d", t.name, pq.name, p, n, resp.MatchCount)
		}
		if n < pageLimit && resp.Cursor != "" {
			return fmt.Errorf("serve-paged %s %s page %d: short page with a cursor", t.name, pq.name, p)
		}
		if err := w.counters("VJ+LEp", fmt.Sprintf("%s|%s|page@%d", t.name, pq.name, offset), resp.counters()); err != nil {
			return err
		}
		offset += n
		w.spans.close(sp)
		if resp.Cursor == "" {
			if offset != len(pq.oracle) {
				return fmt.Errorf("serve-paged %s %s: pagination ended after %d rows, oracle has %d", t.name, pq.name, offset, len(pq.oracle))
			}
			return nil
		}
		cursor = resp.Cursor
	}
	return nil
}

// failure counts a non-200 response. The workload is sized never to shed,
// so a 429 is a failure like any other.
func (s *servePaged) failure(w *window, t *serveTenant, pq *paperQuery, c call) error {
	w.failed.Add(1)
	fmt.Fprintf(os.Stderr, "serve-paged %s %s: status %d: %s\n", t.name, pq.name, c.status, c.body)
	return nil
}

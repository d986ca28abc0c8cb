package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"viewjoin"
	"viewjoin/internal/obs"
	"viewjoin/internal/server"
)

// update-mix: one client, one tenant, an XMark scale 0.25 document whose
// 29 LEp views (the covering views of the 14 XMark queries) are pinned in
// memory with AddView. One op in ten is a POST /update (insert-before,
// append-child or delete-subtree on a seeded <item>); the rest are /query
// pages and count-only queries. Every update rewrites overlay pages,
// maintains every view and invalidates the document's plans, so the next
// queries re-prepare.

const (
	updateXMarkScale = 0.25
	updateRound      = 10  // ops per deck round, one of them an update
	updateCountFrac  = 0.2 // share of new query ops that are count-only
	updateDoc        = "xmark"
)

type updateMix struct {
	seed    int64
	srv     *server.Server
	h       http.Handler
	access  *syncBuffer
	doc     *viewjoin.Document
	queries []*paperQuery
	views   map[string]*viewjoin.MaterializedView
	times   map[string]float64
}

func setupUpdateMix(cfg *config, traced bool) (instance, error) {
	u := &updateMix{seed: cfg.seed, views: map[string]*viewjoin.MaterializedView{}, times: map[string]float64{}}
	t0 := time.Now()
	u.doc = viewjoin.GenerateXMark(updateXMarkScale)
	var err error
	if u.queries, err = paperQueries(u.doc, nil); err != nil {
		return nil, err
	}
	m0 := time.Now()
	mvs, err := u.doc.MaterializeViews(uniqueViews(u.queries), viewjoin.SchemeLEp)
	if err != nil {
		return nil, err
	}
	u.times["views.materialize_s"] = time.Since(m0).Seconds()
	scfg := server.Config{Workers: serveWorkers, CacheSize: serveCacheSize}
	if traced {
		u.access = &syncBuffer{}
		scfg.AccessLog = u.access
		scfg.SlowlogSize = serveSlowlogLen
	}
	r0 := time.Now()
	u.srv = server.New(scfg)
	if err := u.srv.AddDocument(updateDoc, u.doc); err != nil {
		return nil, err
	}
	for _, mv := range mvs {
		if err := u.srv.AddView(updateDoc, mv); err != nil {
			return nil, err
		}
		u.views[mv.Pattern().String()] = mv
	}
	u.h = u.srv.Handler()
	u.times["views.register_s"] = time.Since(r0).Seconds()
	w := newWindow(cfg, nil)
	for _, pq := range u.queries {
		c, err := post(w, 0, -1, u.h, "/query", u.request(pq, 1, ""), &queryResp{})
		if err != nil {
			return nil, err
		}
		if c.status != http.StatusOK {
			return nil, fmt.Errorf("warm %s: status %d: %s", pq.name, c.status, c.body)
		}
	}
	u.times["total"] = time.Since(t0).Seconds()
	return u, nil
}

func (u *updateMix) request(pq *paperQuery, limit int, cursor string) queryReq {
	return queryReq{Document: updateDoc, Query: pq.q.String(), Views: viewNames(pq), Limit: limit, Cursor: cursor}
}

func (u *updateMix) setupTimes() map[string]float64 { return u.times }

func (u *updateMix) describe(out io.Writer) {
	var bytes int64
	for _, mv := range u.views {
		bytes += mv.FootprintBytes()
	}
	fmt.Fprintf(out, "update-mix: xmark scale %g = %d nodes; %d pinned LEp views, %d bytes; %d plan keys, plan cache capacity %d\n",
		updateXMarkScale, u.doc.NumNodes(), len(u.views), bytes, len(u.queries), serveCacheSize)
}

// oracle is computed lazily during the window: the document changes with
// every update, so answers are checked against EvaluateDirect on the
// current snapshot, for a sampled query after each update.
func (u *updateMix) oracle() error { return nil }

func (u *updateMix) close() error { return u.srv.Close() }

func (r *updateResp) runTime() (string, time.Duration) {
	return "server.update", time.Duration(r.DurationUS) * time.Microsecond
}

type updateResp struct {
	Epoch uint64 `json:"epoch"`
	Views []struct {
		FastPath    bool `json:"fast_path"`
		SharedPages int  `json:"shared_pages"`
		TotalPages  int  `json:"total_pages"`
		Compacted   bool `json:"compacted"`
	} `json:"views"`
	PlansInvalidated int   `json:"plans_invalidated"`
	DurationUS       int64 `json:"duration_us"`
}

// walkState is the client's pagination in progress.
type walkState struct {
	pq     *paperQuery
	cursor string
	offset int
	pages  int // pages still to fetch
}

// updateWindow is the state one update-mix window threads through its ops.
type updateWindow struct {
	*updateMix
	w       *window
	rng     *rand.Rand
	epoch   uint64
	walk    *walkState
	checked map[*paperQuery][][]byte // encoded oracle rows at the current epoch
	stats   requestStats
	stale   int64
	checks  int64

	updates, maintained, fastPath, shared, total, compactions, invalidated int64
	txnUS                                                                  int64
	prepares                                                               int
	prepareT, segmentT, bindT                                              time.Duration
}

func (u *updateMix) run(cfg *config, w *window) error {
	var before, after serverMetrics
	if err := get(u.h, "/metrics", &before); err != nil {
		return err
	}
	w.single = true
	uw := &updateWindow{updateMix: u, w: w, rng: rand.New(rand.NewSource(u.seed)),
		checked: map[*paperQuery][][]byte{}}
	round := make([]bool, updateRound) // true marks the round's update
	round[0] = true
	next := len(round)
	for w.more() {
		if next == len(round) {
			uw.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			next = 0
		}
		isUpdate := round[next]
		next++
		var err error
		if isUpdate {
			err = uw.update()
		} else {
			err = uw.query()
		}
		if err != nil {
			return err
		}
	}
	if err := get(u.h, "/metrics", &after); err != nil {
		return err
	}
	serverLayer(w, &before, &after, uw.checks)
	uw.stats.fill(w)
	w.comboLayer()
	n := float64(uw.updates)
	w.layer["update.txn_us"] = ratio(float64(uw.txnUS), n)
	w.layer["maintain.fast_path_ratio"] = ratio(float64(uw.fastPath), float64(uw.maintained))
	w.layer["maintain.shared_page_ratio"] = ratio(float64(uw.shared), float64(uw.total))
	w.layer["maintain.compactions"] = float64(uw.compactions)
	w.layer["update.plans_invalidated"] = float64(uw.invalidated)
	w.layer["cursor.stale"] = float64(uw.stale)
	if uw.prepares > 0 {
		p := float64(uw.prepares)
		w.layer["prepare.us"] = micros(uw.prepareT) / p
		w.layer["prepare.segment_us"] = micros(uw.segmentT) / p
		w.layer["prepare.bind_us"] = micros(uw.bindT) / p
	}
	if w.spans != nil {
		return serverTrace(w, u.h, u.access, cfg, "update-mix")
	}
	return nil
}

// query issues one query op: the next page of the walk in progress, or a
// new walk or count-only query.
func (uw *updateWindow) query() error {
	w := uw.w
	if uw.walk == nil {
		pq := uw.queries[uw.rng.Intn(len(uw.queries))]
		if uw.rng.Float64() < updateCountFrac {
			return uw.count(pq)
		}
		pages := 1
		for uw.rng.Float64() >= servePageStopP {
			pages++
		}
		uw.walk = &walkState{pq: pq, pages: pages}
	}
	wk := uw.walk
	id := w.nextOp()
	w.attempted.Add(1)
	var resp queryResp
	sp := w.spans.open(id, -1, "op.page")
	c, err := post(w, id, sp, uw.h, "/query", uw.request(wk.pq, pageLimit, wk.cursor), &resp)
	if err != nil {
		return err
	}
	w.spans.close(sp)
	switch c.status {
	case http.StatusOK:
	case http.StatusGone:
		// An update landed mid-walk: the cursor's epoch is gone. Restart
		// the pagination; a stale cursor is an expected outcome, not a
		// failure.
		uw.stale++
		uw.walk = nil
		return nil
	default:
		w.failed.Add(1)
		fmt.Fprintf(os.Stderr, "update-mix %s: status %d: %s\n", wk.pq.name, c.status, c.body)
		uw.walk = nil
		return nil
	}
	w.done(c.handler, true, false)
	uw.stats.observe(c, resp.DurationUS)

	um := beginUntimed()
	if oracle, ok := uw.checked[wk.pq]; ok {
		n, err := samePage(resp.Matches, oracle, wk.offset)
		if err != nil {
			return fmt.Errorf("update-mix %s epoch %d page at row %d: wrong answer: %v", wk.pq.name, uw.epoch, wk.offset, err)
		}
		if resp.Cursor == "" && wk.offset+n != len(oracle) {
			return fmt.Errorf("update-mix %s epoch %d: pagination ended after %d rows, oracle has %d",
				wk.pq.name, uw.epoch, wk.offset+n, len(oracle))
		}
	}
	key := fmt.Sprintf("%s|e%d|page@%d", wk.pq.name, uw.epoch, wk.offset)
	if err := w.counters("VJ+LEp", key, resp.counters()); err != nil {
		return err
	}
	w.endUntimed(um)

	wk.offset += resp.MatchCount
	wk.cursor = resp.Cursor
	wk.pages--
	if wk.pages == 0 || wk.cursor == "" {
		uw.walk = nil
	}
	return nil
}

// count issues a count-only full query.
func (uw *updateWindow) count(pq *paperQuery) error {
	w := uw.w
	id := w.nextOp()
	w.attempted.Add(1)
	var resp queryResp
	sp := w.spans.open(id, -1, "op.count")
	c, err := post(w, id, sp, uw.h, "/query", uw.request(pq, 0, ""), &resp)
	if err != nil {
		return err
	}
	w.spans.close(sp)
	if c.status != http.StatusOK {
		w.failed.Add(1)
		fmt.Fprintf(os.Stderr, "update-mix %s: status %d: %s\n", pq.name, c.status, c.body)
		return nil
	}
	w.done(c.handler, true, false)
	uw.stats.observe(c, resp.DurationUS)
	um := beginUntimed()
	if oracle, ok := uw.checked[pq]; ok && resp.MatchCount != len(oracle) {
		return fmt.Errorf("update-mix %s epoch %d: count-only query returned %d matches, oracle %d",
			pq.name, uw.epoch, resp.MatchCount, len(oracle))
	}
	err = w.counters("VJ+LEp", fmt.Sprintf("%s|e%d|count", pq.name, uw.epoch), resp.counters())
	w.endUntimed(um)
	return err
}

// update applies one seeded update through POST /update, then checks a
// sampled query at the new epoch (untimed).
func (uw *updateWindow) update() error {
	w := uw.w
	um := beginUntimed()
	req, ok := uw.randomUpdate()
	w.endUntimed(um)
	if !ok {
		return fmt.Errorf("update-mix: no <item> left to update")
	}
	id := w.nextOp()
	w.attempted.Add(1)
	var resp updateResp
	sp := w.spans.open(id, -1, "op.update")
	c, err := post(w, id, sp, uw.h, "/update", req, &resp)
	if err != nil {
		return err
	}
	w.spans.close(sp)
	if c.status != http.StatusOK {
		w.failed.Add(1)
		fmt.Fprintf(os.Stderr, "update-mix update %+v: status %d: %s\n", req, c.status, c.body)
		return nil
	}
	w.done(c.handler, false, true)
	uw.epoch = resp.Epoch
	uw.updates++
	uw.txnUS += resp.DurationUS
	uw.invalidated += int64(resp.PlansInvalidated)
	for _, v := range resp.Views {
		uw.maintained++
		uw.shared += int64(v.SharedPages)
		uw.total += int64(v.TotalPages)
		if v.FastPath {
			uw.fastPath++
		}
		if v.Compacted {
			uw.compactions++
		}
	}

	um = beginUntimed()
	err = uw.check(id)
	w.endUntimed(um)
	return err
}

// updateRequest mirrors the body of POST /update.
type updateRequest struct {
	Document string `json:"document"`
	Op       string `json:"op"`
	Target   int32  `json:"target"`
	Fragment string `json:"fragment,omitempty"`
}

var updateOps = []string{"insert-before", "append-child", "delete-subtree"}

// randomUpdate draws an update on a seeded <item> of the current snapshot.
// Fragments follow the maintenance experiment: one in three uses foreign
// tags no view covers, the rest are item subtrees in the views' alphabet.
func (uw *updateWindow) randomUpdate() (updateRequest, bool) {
	items := viewjoin.EvaluateDirect(uw.doc, viewjoin.MustParseQuery("//item")).Matches
	if len(items) == 0 {
		return updateRequest{}, false
	}
	target := items[uw.rng.Intn(len(items))][0].Start
	req := updateRequest{Document: updateDoc, Op: updateOps[uw.rng.Intn(len(updateOps))], Target: target}
	if req.Op == "delete-subtree" {
		return req, true
	}
	if uw.rng.Intn(3) == 0 {
		req.Fragment = "<ext><zline/><zline/></ext>"
		return req, true
	}
	var b strings.Builder
	b.WriteString("<item>")
	for n := 1 + uw.rng.Intn(3); n > 0; n-- {
		b.WriteString("<name/>")
		if uw.rng.Intn(2) == 0 {
			b.WriteString("<description><keyword/></description>")
		}
	}
	b.WriteString("</item>")
	req.Fragment = b.String()
	return req, true
}

// check re-evaluates a sampled query on the document's current snapshot
// with EvaluateDirect and compares the server's full answer, fetched
// through /debug/trace (which bypasses the plan cache, so the check does
// not warm the plan the measured ops will need). The oracle rows are kept
// to check the epoch's later pages and counts of that query.
func (uw *updateWindow) check(op int64) error {
	pq := uw.queries[uw.rng.Intn(len(uw.queries))]
	oracle, err := encodeRows(viewjoin.EvaluateDirect(uw.doc, pq.q).Matches)
	if err != nil {
		return err
	}
	clear(uw.checked)
	uw.checked[pq] = oracle
	var resp queryResp
	c, err := post(uw.w, op, -1, uw.h, "/debug/trace", uw.request(pq, len(oracle)+1, ""), &resp)
	if err != nil {
		return err
	}
	uw.checks++
	if c.status != http.StatusOK {
		return fmt.Errorf("update-mix check %s: status %d: %s", pq.name, c.status, c.body)
	}
	if n, err := samePage(resp.Matches, oracle, 0); err != nil || n != len(oracle) {
		return fmt.Errorf("update-mix %s at epoch %d: wrong answer after update (%d rows, oracle %d): %v",
			pq.name, uw.epoch, n, len(oracle), err)
	}
	if uw.w.spans != nil {
		return uw.tracedPrepare(op, pq)
	}
	return nil
}

// tracedPrepare prepares the sampled query under a recorder on the views
// the server maintains, for the plan layer's numbers at the current epoch.
func (uw *updateWindow) tracedPrepare(op int64, pq *paperQuery) error {
	mvs := make([]*viewjoin.MaterializedView, len(pq.views))
	for i, v := range pq.views {
		mvs[i] = uw.views[v.String()]
	}
	rec := obs.NewRecorder()
	t0 := time.Now()
	if _, err := viewjoin.Prepare(uw.doc, pq.q, mvs, viewjoin.EngineViewJoin, &viewjoin.EvalOptions{Tracer: rec}); err != nil {
		return fmt.Errorf("traced prepare %s: %w", pq.name, err)
	}
	t1 := time.Now()
	sp := uw.w.spans.add(op, -1, "viewjoin.Prepare", t0, t1)
	seg, bind := rec.PhaseDuration(obs.PhaseSegment), rec.PhaseDuration(obs.PhaseBind)
	uw.w.spans.derived(op, sp, t0, []string{"segment", "bind"}, []time.Duration{seg, bind})
	uw.prepares++
	uw.prepareT += t1.Sub(t0)
	uw.segmentT += seg
	uw.bindT += bind
	return nil
}

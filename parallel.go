package viewjoin

import (
	"sync"
	"sync/atomic"

	"viewjoin/internal/engine"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// This file implements range-partitioned parallel evaluation: one prepared
// plan executed as K independent jobs over disjoint start-label slices of
// the document, with outputs merged back into sequential order.
//
// Partitions are anchored at the bottom of the query's unary spine — the
// first query node with other than exactly one child. A match binds the
// spine to an ancestor chain of its anchor binding and confines every
// other node to the anchor binding's subtree, so cutting the document
// between the merged subtree spans of the anchor's candidates assigns
// each match to exactly one chunk: the one containing its anchor binding.
// Each job evaluates with non-spine nodes range-restricted to its chunk
// and spine nodes admitted when they overlap it. See DESIGN.md,
// "Range-partitioned parallel evaluation", for the full argument.

// partitionInfo is what the planner needs from a prepared engine: the
// document regions of the anchor node's candidates (to place cuts that no
// match can straddle) and an estimated byte weight of a start range (to
// balance chunks).
type partitionInfo interface {
	AnchorSpans(qi int) []engine.Span
	WeightIn(lo, hi int32) int64
}

// listInfo adapts the list-file engines (ViewJoin, TwigStack, PathStack)
// to partitionInfo: node qi's candidates are the records of lists[qi],
// and weight is the payload bytes of every list's slice — the same
// quantity the page-cost model charges for scanning the slice.
type listInfo struct {
	lists []*store.ListFile
}

func (li listInfo) AnchorSpans(qi int) []engine.Span {
	if qi >= len(li.lists) || li.lists[qi] == nil {
		return nil
	}
	l := li.lists[qi]
	out := make([]engine.Span, l.Entries())
	for i := range out {
		lb := l.LabelAt(i)
		out[i] = engine.Span{Lo: lb.Start, Hi: lb.End}
	}
	return out
}

func (li listInfo) WeightIn(lo, hi int32) int64 {
	var w int64
	for _, l := range li.lists {
		if l == nil {
			continue
		}
		n := l.Entries()
		if n == 0 {
			continue
		}
		rec := l.PayloadBytes() / int64(n)
		w += int64(engine.CountInSpan(l, engine.Span{Lo: lo, Hi: hi})) * rec
	}
	return w
}

func (p *PreparedQuery) partitionInfo() partitionInfo {
	switch p.eng {
	case EngineViewJoin:
		return listInfo{p.vj.Lists()}
	case EngineTwigStack:
		return listInfo{p.ts.Lists()}
	case EnginePathStack:
		return listInfo{p.ps.Lists()}
	case EngineInterJoin:
		return p.ij
	}
	return nil
}

// anchorNode walks the query's unary spine — the maximal pre-order prefix
// in which every node has exactly one child — and returns the index of its
// bottom: the first node with zero or several children. It returns -1 when
// the pattern's spine nodes are not laid out consecutively in pre-order
// (hand-built patterns), which the planner treats as unpartitionable.
func anchorNode(nodes []tpq.Node) int {
	b := 0
	for len(nodes[b].Children) == 1 {
		c := nodes[b].Children[0]
		if c != b+1 {
			return -1
		}
		b = c
	}
	return b
}

// planPartitions builds the job list for a K-way partitioned run, or nil
// when the query cannot be usefully partitioned — callers fall back to
// the sequential path, so partitioning degrades but never errors.
//
// The cut points come from the anchor node's candidates: their document
// regions, merged into disjoint blobs (MergeSpans), are the only places a
// match's anchor binding can live, and no blob's subtree extends into
// another. The blobs are coalesced into at most k chunks balanced by
// estimated page weight; each chunk becomes one job whose restriction
// pins the spine above it and bounds everything else inside it. A single
// blob (e.g. a query anchored at the document root) admits no cut and
// yields no parallelism.
//
// Plans are cached per parallelism degree: the job list is immutable once
// built (restrictions are read-only to the engines), so repeated parallel
// runs of a cached serving plan skip the anchor-span merge entirely.
func (p *PreparedQuery) planPartitions(k int) []engine.Restriction {
	if k <= 1 {
		return nil
	}
	p.partMu.Lock()
	jobs, ok := p.partPlans[k]
	p.partMu.Unlock()
	if ok {
		return jobs
	}
	jobs = p.computePartitions(k)
	p.partMu.Lock()
	if p.partPlans == nil {
		p.partPlans = make(map[int][]engine.Restriction)
	}
	p.partPlans[k] = jobs
	p.partMu.Unlock()
	return jobs
}

func (p *PreparedQuery) computePartitions(k int) []engine.Restriction {
	b := anchorNode(p.q.p.Nodes)
	if b < 0 {
		return nil
	}
	info := p.partitionInfo()
	if info == nil {
		return nil
	}
	blobs := engine.MergeSpans(info.AnchorSpans(b))
	if len(blobs) <= 1 {
		return nil
	}
	chunks := engine.CoalesceSpans(blobs, func(s engine.Span) int64 {
		return info.WeightIn(s.Lo, s.Hi)
	}, k)
	if len(chunks) <= 1 {
		return nil
	}
	jobs := make([]engine.Restriction, len(chunks))
	for i, ch := range chunks {
		jobs[i] = engine.Restriction{Spine: b, Body: ch}
	}
	return jobs
}

// spineOrdered reports whether match order across ascending partition
// chunks follows job index. Matches compare lexicographically by binding
// start, walking the unary spine before reaching the anchor; when every
// spine node above the anchor binds at most one candidate — e.g. the §VI
// queries, all rooted at the single //site element — two matches from
// different jobs first differ at the anchor itself, whose chunks ascend
// with job index. A root anchor is ordered trivially. With several
// candidates at a spine level the cross-job comparison can invert (a
// later chunk's match may bind an earlier-starting spine ancestor), so
// neither the shared quota cutoff nor streamed merging is sound.
func (p *PreparedQuery) spineOrdered() bool {
	p.partMu.Lock()
	cached := p.spineOrd
	p.partMu.Unlock()
	if cached != 0 {
		return cached > 0
	}
	ordered := func() bool {
		b := anchorNode(p.q.p.Nodes)
		if b <= 0 {
			return b == 0
		}
		info := p.partitionInfo()
		if info == nil {
			return false
		}
		for qi := 0; qi < b; qi++ {
			if len(info.AnchorSpans(qi)) > 1 {
				return false
			}
		}
		return true
	}()
	p.partMu.Lock()
	if ordered {
		p.spineOrd = 1
	} else {
		p.spineOrd = -1
	}
	p.partMu.Unlock()
	return ordered
}

// quotaState coordinates a shared first-k quota across partition jobs.
// Jobs are planned over ascending document chunks; when the cross-job
// order follows job index (spineOrdered), once the maximal completed
// prefix of jobs has produced quota matches, no later job can contribute
// to the page: the cutoff index tells not-yet-started jobs to skip
// entirely and in-flight later jobs to stop at their next interrupt poll
// (engine.ErrStop — their partial output sorts after the quota and is
// sliced away). When spine bindings above the chunk break the cross-job
// ordering, only the per-job quota applies (sound for any anchor: a match
// in the global first quota is in its own job's first quota).
type quotaState struct {
	quota  int
	cutoff atomic.Int64 // first job index that cannot contribute
	mu     sync.Mutex
	done   []bool
	counts []int
}

func newQuotaState(quota, jobs int) *quotaState {
	qs := &quotaState{quota: quota, done: make([]bool, jobs), counts: make([]int, jobs)}
	qs.cutoff.Store(int64(jobs))
	return qs
}

// complete records job i's match count and advances the cutoff when the
// completed prefix alone satisfies the quota.
func (qs *quotaState) complete(i, count int) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.done[i] = true
	qs.counts[i] = count
	sum := 0
	for j := 0; j < len(qs.done) && qs.done[j]; j++ {
		sum += qs.counts[j]
		if sum >= qs.quota {
			if int64(j+1) < qs.cutoff.Load() {
				qs.cutoff.Store(int64(j + 1))
			}
			return
		}
	}
}

// runJobs executes a partitioned run on up to ro.Parallel workers and
// returns the per-job outcomes. Jobs run untraced: Tracer implementations
// are not concurrency-safe.
//
// Under a limit (ro.first() > 0) every job runs with the page quota as its
// own first-k bound, and when cross-job order follows job index
// (spineOrdered) a quotaState additionally stops scanning partitions that
// can no longer contribute to the page (see quotaState).
//
// A nil sink has every job render into its own row buffer; the caller
// merges the outputs. A non-nil sink — only for a bounded, spineOrdered
// run of a streaming engine — has each job copy its rows into its buffer
// and pass them through a per-job channel, and the calling goroutine
// drains the channels in job index order, which is then document order:
// the first row reaches the sink as soon as job 0's engine emits it, while
// other partitions are still scanning. Once the sink is done, a stop latch
// halts the remaining jobs at their next interrupt poll.
func (p *PreparedQuery) runJobs(jobs []engine.Restriction, interrupt func() error, ro RunOptions, sink *streamer) []jobOut {
	var qs *quotaState
	if ro.first() > 0 && p.spineOrdered() {
		qs = newQuotaState(ro.first(), len(jobs))
	}
	var (
		chans    []chan []Node
		stop     chan struct{}
		stopOnce sync.Once
	)
	if sink != nil {
		// Each buffer holds the full per-job quota (no job emits more than
		// ro.first() matches), so workers never block on a slow consumer
		// and an early stop needs no drain protocol.
		chans = make([]chan []Node, len(jobs))
		for i := range chans {
			chans[i] = make(chan []Node, ro.first())
		}
		stop = make(chan struct{})
	}
	jobInterrupt := func(i int) func() error {
		if qs == nil {
			return interrupt
		}
		return func() error {
			if int64(i) >= qs.cutoff.Load() {
				return engine.ErrStop
			}
			select {
			case <-stop: // nil (never ready) without a sink
				return engine.ErrStop
			default:
			}
			if interrupt != nil {
				return interrupt()
			}
			return nil
		}
	}
	outs := make([]jobOut, len(jobs))
	wait := parallelFor(min(ro.Parallel, len(jobs)), len(jobs), func(i int) {
		if chans != nil {
			defer close(chans[i])
		}
		if qs != nil && int64(i) >= qs.cutoff.Load() {
			outs[i].skipped = true
			qs.complete(i, 0)
			return
		}
		var emit func([]Node) bool
		if sink != nil {
			rows := &outs[i].rows
			rows.Init(p.q.p.Size(), ro.first())
			emit = func(row []Node) bool {
				r := rows.Next()
				copy(r, row)
				chans[i] <- r
				return true
			}
		}
		p.exec(&outs[i], &jobs[i], jobInterrupt(i), ro, nil, emit)
		if qs != nil {
			qs.complete(i, outs[i].rows.Len())
		}
	})
	for i := range chans {
		for m := range chans[i] {
			sink.deliver(m)
			if sink.done {
				stopOnce.Do(func() { close(stop) })
			}
		}
	}
	wait()
	return outs
}

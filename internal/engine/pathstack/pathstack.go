// Package pathstack implements the PathStack structural join algorithm of
// Bruno, Koudas & Srivastava (SIGMOD 2002), the "PS"/"TS-on-paths" baseline
// of the paper's motivation experiment (§I, §VI-A).
//
// PathStack evaluates a path query over one element stream per query node
// using a chain of linked stacks: every pushed element records the top of
// its parent's stack at push time, and each leaf push expands into the
// root-to-leaf combinations it closes over. Unlike the shared window stage
// used by TwigStack/ViewJoin, PathStack emits solutions directly from its
// stacks — it is an independent implementation that cross-checks the other
// engines on path queries.
package pathstack

import (
	"fmt"
	"slices"
	"sync"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// frame is one stack element: a region label plus the index of the top of
// the parent stack at push time (-1 when the parent stack was empty, which
// only happens for the root).
type frame struct {
	l         store.Label
	parentTop int
}

// Prepared is the compile-once part of a PathStack evaluation: the bound
// per-query-node lists plus a pool of reusable run scratch (cursors,
// linked stacks, the expansion buffer). Immutable after construction and
// safe for concurrent Run calls.
type Prepared struct {
	q     *tpq.Pattern
	lists []*store.ListFile
	pool  sync.Pool // *scratch
}

// scratch is the per-run state of one PathStack execution, reset in place
// between runs.
type scratch struct {
	curBuf []store.ListCursor
	cur    []*store.ListCursor
	stacks [][]frame
	buf    []store.Label
	ic     engine.Interrupter
	// first/after mirror Options.First/Options.After. PathStack emits
	// leaf-major (out of document order), so a first-k bound cannot stop the
	// scan early; instead the accumulator keeps only the first smallest
	// matches seen so far (periodic sort+truncate), bounding peak result
	// memory to O(first) while still scanning every candidate.
	first int
	after []int32
	// tuples accumulates the run's matches as label tuples, one per |Q|
	// labels; order is the sort permutation over them and spare the
	// compaction target of a bounded truncation. All three keep their
	// capacity across runs: a match is rendered once, after the sort.
	tuples []store.Label
	spare  []store.Label
	order  []int32
}

// Lists returns the per-query-node list files the plan is bound to, for
// partition planning.
func (p *Prepared) Lists() []*store.ListFile { return p.lists }

// Footprint estimates the plan-resident bytes beyond the shared document
// and view stores: PathStack binds references to existing list files, so
// a cached plan carries only those bindings. Pooled run scratch is
// excluded.
func (p *Prepared) Footprint() int64 { return int64(len(p.lists)) * 8 }

// Prepare binds the path query q over the given lists for repeated runs.
// It returns an error if q is not a path query.
func Prepare(q *tpq.Pattern, lists []*store.ListFile) (*Prepared, error) {
	if !q.IsPath() {
		return nil, fmt.Errorf("pathstack: %s is not a path query", q)
	}
	return &Prepared{q: q, lists: lists}, nil
}

// Run executes the prepared plan once, drawing scratch from the pool and
// resetting it in place, and renders the matches into opts.Out in
// document order.
func (p *Prepared) Run(io *counters.IO, opts engine.Options) error {
	sc, _ := p.pool.Get().(*scratch)
	n := p.q.Size()
	if sc == nil {
		sc = &scratch{
			curBuf: make([]store.ListCursor, n),
			cur:    make([]*store.ListCursor, n),
			stacks: make([][]frame, n),
			buf:    make([]store.Label, n),
		}
	}
	tr := opts.Tracer
	sc.ic = engine.NewInterrupter(opts.Interrupt)
	sc.first, sc.after = opts.First, opts.After
	for i, l := range p.lists {
		engine.ResetCursor(&sc.curBuf[i], l, io, tr, i, opts.Restrict)
		sc.cur[i] = &sc.curBuf[i]
	}
	for i := range sc.stacks {
		sc.stacks[i] = sc.stacks[i][:0]
	}
	sc.tuples = sc.tuples[:0]
	p.eval(sc, io, tr)
	// ErrStop is a quota-driven stop requested by the interrupt hook (the
	// parallel cutoff), not a failure: the bounded output is the answer.
	if err := sc.ic.Err(); err != nil && err != engine.ErrStop {
		p.pool.Put(sc)
		return err
	}
	// The linked stacks emit leaf-major (ancestor combinations enumerated
	// newest-first); canonicalize to the lexicographic document order the
	// other engines produce so sequential and partitioned runs are
	// byte-comparable.
	k := sc.sortTuples(n)
	if sc.first > 0 && k > sc.first {
		k = sc.first
	}
	opts.Out.Reserve(k)
	for _, t := range sc.order[:k] {
		engine.Render(opts.Out.Next(), p.q, sc.tuples[int(t)*n:int(t+1)*n])
	}
	p.pool.Put(sc) // sc must not be touched past this point
	io.C.Matches = int64(k)
	if k > 0 {
		// PathStack cannot stream: time-to-first-match is the full
		// scan+sort, stamped here so the metric reflects that honestly.
		io.MarkFirstMatch()
	}
	return nil
}

// Eval evaluates the path query q over the per-query-node lists using
// PathStack and writes every tree pattern instance to opts.Out (one-shot
// Prepare + Run). It returns an error if q is not a path query.
func Eval(q *tpq.Pattern, lists []*store.ListFile, io *counters.IO, opts engine.Options) error {
	p, err := Prepare(q, lists)
	if err != nil {
		return err
	}
	return p.Run(io, opts)
}

// sortTuples sets order to the accumulated tuples' indices in document
// order and returns their count.
func (sc *scratch) sortTuples(n int) int {
	k := len(sc.tuples) / n
	sc.order = sc.order[:0]
	for i := 0; i < k; i++ {
		sc.order = append(sc.order, int32(i))
	}
	slices.SortFunc(sc.order, func(a, b int32) int {
		return engine.CompareStarts(sc.tuples[int(a)*n:int(a+1)*n], sc.tuples[int(b)*n:int(b+1)*n])
	})
	return k
}

// truncate keeps only the first smallest keep tuples, compacted in
// document order.
func (sc *scratch) truncate(n, keep int) {
	sc.sortTuples(n)
	sc.spare = sc.spare[:0]
	for _, t := range sc.order[:keep] {
		sc.spare = append(sc.spare, sc.tuples[int(t)*n:int(t+1)*n]...)
	}
	sc.tuples, sc.spare = sc.spare, sc.tuples
}

// eval is the PathStack main loop over one run's scratch; matches
// accumulate in sc.tuples.
func (p *Prepared) eval(sc *scratch, io *counters.IO, tr obs.Tracer) {
	q := p.q
	n := q.Size()
	cur, stacks, buf := sc.cur, sc.stacks, sc.buf

	for {
		if sc.ic.Check() != nil {
			// On ErrStop the output so far is the (bounded) answer; on a
			// real error Run discards it.
			return
		}
		// qmin: the valid cursor with the smallest start label.
		qmin := -1
		for i := 0; i < n; i++ {
			if !cur[i].Valid() {
				continue
			}
			if qmin == -1 || cur[i].Item().Start < cur[qmin].Item().Start {
				qmin = i
			}
			io.C.Comparisons++
		}
		if qmin == -1 {
			break
		}
		it := cur[qmin].Item()
		l := store.Label{Start: it.Start, End: it.End, Level: it.Level}

		// Pop every stack entry that ended before this element starts.
		for i := 0; i < n; i++ {
			popped := 0
			for len(stacks[i]) > 0 && stacks[i][len(stacks[i])-1].l.End < l.Start {
				stacks[i] = stacks[i][:len(stacks[i])-1]
				popped++
				io.C.Comparisons++
			}
			if popped > 0 && tr != nil {
				tr.Event(obs.EvStackPop, i, int64(popped))
			}
		}

		pushed := false
		if qmin == 0 {
			if q.Nodes[0].Axis == tpq.Descendant || l.Level == 0 {
				stacks[0] = append(stacks[0], frame{l, -1})
				pushed = true
			}
		} else if len(stacks[qmin-1]) > 0 {
			stacks[qmin] = append(stacks[qmin], frame{l, len(stacks[qmin-1]) - 1})
			pushed = true
		}
		if pushed && tr != nil {
			tr.Event(obs.EvStackPush, qmin, 1)
		}
		if pushed && qmin == n-1 {
			expand(q, stacks, n-1, len(stacks[n-1])-1, buf, io, sc)
			stacks[n-1] = stacks[n-1][:len(stacks[n-1])-1]
			if tr != nil {
				tr.Event(obs.EvStackPop, n-1, 1)
			}
			// Bounded accumulation under a first-k quota: once the buffer
			// grows well past the quota, keep only the first smallest
			// matches. The slack (4x + 64) amortizes the sorts to O(log)
			// per appended match.
			if sc.first > 0 && len(sc.tuples) >= (4*sc.first+64)*n {
				sc.truncate(n, sc.first)
			}
		}
		cur[qmin].Next()
	}
}

// afterCursor reports whether the start-label tuple in buf is strictly
// greater than the cursor tuple (lexicographic, i.e. document order).
func afterCursor(buf []store.Label, after []int32) bool {
	for k := range buf {
		if s := buf[k].Start; s != after[k] {
			return s > after[k]
		}
	}
	return false
}

// expand emits every root-to-leaf combination closed by the frame at
// position fi of stack qi: the element pairs with every frame of the parent
// stack up to its recorded parentTop, subject to the pc-level checks that
// the stacks alone do not enforce.
func expand(q *tpq.Pattern, stacks [][]frame, qi, fi int,
	buf []store.Label, io *counters.IO, sc *scratch) {
	buf[qi] = stacks[qi][fi].l
	if qi == 0 {
		if sc.ic.Check() != nil {
			return
		}
		if sc.after != nil && !afterCursor(buf, sc.after) {
			return
		}
		sc.tuples = append(sc.tuples, buf...)
		return
	}
	for pi := stacks[qi][fi].parentTop; pi >= 0; pi-- {
		if sc.ic.Err() != nil {
			return
		}
		io.C.Comparisons++
		if q.Nodes[qi].Axis == tpq.Child && stacks[qi-1][pi].l.Level != buf[qi].Level-1 {
			continue
		}
		expand(q, stacks, qi-1, pi, buf, io, sc)
	}
}

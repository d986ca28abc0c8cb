// Package enum implements the shared output stage of the stack- and
// DAG-based engines: candidate solution nodes are collected into windows —
// one window per top-level query-root candidate region — and each window
// is enumerated into tree pattern instances with every edge of the original
// query verified (region containment; level labels for pc-edges, as §IV-B
// prescribes for inter-view pc-edges).
//
// This stage is the correctness firewall of the reproduction: candidate
// generation (skipping, pointer jumps, segment cursors) may over-approximate
// the solution set, but a tuple is only emitted after all of Q's edges
// check out, so spurious candidates cost time, never wrong answers.
package enum

import (
	"sort"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/match"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// Label re-exports the region label triple used across engines.
type Label = store.Label

// Collector accumulates per-query-node candidates in document order and
// flushes completed windows into matches, rendered straight from the
// candidates' region labels into the run's row buffer (or its sink).
//
// In the memory-based approach (§IV "Variations") the window lives in
// memory until flushed; PeakEntries tracks the largest window, the F_max of
// the paper's space analysis. In the disk-based approach the window is
// spooled to scratch pages when collected and read back at flush time,
// charging page writes and reads; resident memory then stays O(|Q|·depth).
type Collector struct {
	q   *tpq.Pattern
	io  *counters.IO
	tr  obs.Tracer  // nil when tracing is off
	out *match.Rows // receives the matches unless emit is set

	cands       [][]Label // per query node, current window, doc order
	windowStart int32
	windowEnd   int32
	open        bool

	entries     int // entries in the current window
	peakEntries int

	diskBased bool
	pageSize  int
	spoolIn   int64 // bytes spooled in the current window

	// pending buffers non-root candidates offered ahead of their window
	// (ViewJoin's bulk segment adds can run ahead of the root list); they
	// are drained into the next window that covers them.
	pending []pendingCand

	// PreFlush, when set, runs at the start of every window flush with the
	// window's region; ViewJoin uses it to extend the window with the query
	// nodes that were removed from Q' (§IV-B second step).
	PreFlush func(lo, hi int32)

	// ic, when non-nil, is the engine run's shared cooperative cancellation
	// checker; enumeration polls it so a window with a huge cross product
	// cannot outlive the request's deadline. Once it trips, flushes become
	// no-ops and the partial output is abandoned by the engine.
	ic *engine.Interrupter

	// Output state (SetOutput): emit delivers matches to a sink as windows
	// close instead of appending them to out; first bounds the total
	// matches produced; after is the resumption cursor (emit only matches
	// strictly greater than this start tuple, document order); emitted
	// counts deliveries; stopped latches once the quota is met or the sink
	// declines, turning every later Add/Flush into a no-op.
	emit    func(row []match.Node) bool
	first   int
	after   []int32
	emitted int
	stopped bool

	// Partial-flush state. spine is the maximal single-child chain under
	// the query root (pattern pre-order indices 1..a, where a is the first
	// node with zero or several children); when it is non-empty, a
	// document-spanning window — every §VI query is rooted at //site, one
	// element covering the whole document — can stream finished sub-regions
	// out before the window closes (see Advance). nextPartial is the
	// entry-count trigger for the next partial-flush attempt, grown
	// geometrically so filter work stays amortized against window growth.
	// full is swap scratch for enumerating truncated candidate lists.
	// flushedBound is the bound of the window's latest partial flush: every
	// tuple whose bindings all start before it has already been emitted, so
	// later enumerations of the same window (candidates spanning the bound
	// are kept) skip those tuples instead of emitting them twice.
	spine        []int
	nextPartial  int
	full         [][]Label
	flushedBound int32

	// Reusable per-window scratch (allocated once, reused across windows).
	ok        [][]bool
	okStarts  [][]int32
	okLevels  [][]levelGroup // pc-children only: surviving starts per level
	needLevel []bool         // query node is a pc-child: level grouping required
	cur       []Label
	row       []match.Node // emit scratch
}

// levelGroup holds the surviving candidate starts at one level. Windows
// rarely span more than a couple of levels per node, so a small slice
// outperforms a map.
type levelGroup struct {
	level  int32
	starts []int32
}

type pendingCand struct {
	qi int
	l  Label
}

// LabelBytes is the scratch-record size used by the disk-based approach's
// spool accounting: one region label (12 bytes) plus the query-node tag.
const LabelBytes = 16

// partialTrigger is the window entry count that arms the first partial
// flush of a window; later attempts re-arm at 1.5x the entries surviving
// the previous attempt, so filter work stays amortized against growth.
const partialTrigger = 64

// NewCollector returns a Collector for query q, accounting into io and
// tracing into tr (nil disables tracing). When diskBased is set, windows
// are spooled through scratch pages of the given pageSize (0 means
// store.DefaultPageSize). SetOutput names where the matches go.
func NewCollector(q *tpq.Pattern, io *counters.IO, tr obs.Tracer, diskBased bool, pageSize int) *Collector {
	if pageSize == 0 {
		pageSize = store.DefaultPageSize
	}
	n := q.Size()
	c := &Collector{
		q:         q,
		io:        io,
		tr:        tr,
		cands:     make([][]Label, n),
		diskBased: diskBased,
		pageSize:  pageSize,
		ok:        make([][]bool, n),
		okStarts:  make([][]int32, n),
		okLevels:  make([][]levelGroup, n),
		needLevel: make([]bool, n),
		cur:       make([]Label, n),
		row:       make([]match.Node, n),
	}
	for qi := 1; qi < n; qi++ {
		if q.Nodes[qi].Axis == tpq.Child {
			c.needLevel[qi] = true
		}
	}
	// The spine is the maximal single-child chain from the root: node 1..a
	// where a is the first node with zero or several children. When it is
	// empty (multi-child or leaf root), partial flushing is disabled — the
	// root's branches cross-product over the whole window, so no tuple is
	// final before the window closes.
	for qi := 0; len(q.Nodes[qi].Children) == 1; {
		qi = q.Nodes[qi].Children[0]
		c.spine = append(c.spine, qi)
	}
	c.full = make([][]Label, n)
	c.nextPartial = partialTrigger
	return c
}

// Reset readies the collector for a fresh run over the same query: the
// accounting and tracer are rebound, the output options are cleared
// (SetOutput sets them), collected state is cleared, and every scratch
// slice keeps its capacity. The previous run's row buffer is not touched
// (it belongs to the caller). PreFlush is preserved.
func (c *Collector) Reset(io *counters.IO, tr obs.Tracer, diskBased bool, pageSize int) {
	if pageSize == 0 {
		pageSize = store.DefaultPageSize
	}
	c.io, c.tr, c.diskBased, c.pageSize = io, tr, diskBased, pageSize
	c.ic = nil
	c.out, c.emit, c.first, c.after = nil, nil, 0, nil
	c.emitted, c.stopped = 0, false
	for qi := range c.cands {
		c.cands[qi] = c.cands[qi][:0]
	}
	c.pending = c.pending[:0]
	c.open = false
	c.windowStart, c.windowEnd = 0, 0
	c.entries, c.peakEntries = 0, 0
	c.spoolIn = 0
	c.nextPartial = partialTrigger
	c.flushedBound = 0
	for qi := range c.okStarts {
		c.okStarts[qi] = c.okStarts[qi][:0]
	}
	for qi := range c.okLevels {
		for g := range c.okLevels[qi] {
			c.okLevels[qi][g].starts = c.okLevels[qi][g].starts[:0]
		}
	}
}

// Add offers a candidate for query node qi. Candidates for the query root
// (qi == 0) drive window management: a root candidate beyond the current
// window flushes it and opens a new one. Non-root candidates outside any
// open window cannot participate in a match and are dropped.
func (c *Collector) Add(qi int, l Label) {
	if qi == 0 {
		if !c.open {
			c.openWindow(l)
			return
		}
		if l.Start > c.windowEnd {
			c.Flush()
			c.openWindow(l)
			return
		}
		c.append(0, l)
		return
	}
	if !c.open || l.Start > c.windowEnd {
		c.pending = append(c.pending, pendingCand{qi, l})
		return
	}
	c.append(qi, l)
}

func (c *Collector) openWindow(rootLabel Label) {
	c.open = true
	c.windowStart = rootLabel.Start
	c.windowEnd = rootLabel.End
	c.flushedBound = rootLabel.Start
	c.append(0, rootLabel)
	if len(c.pending) > 0 {
		keep := c.pending[:0]
		for _, p := range c.pending {
			switch {
			case p.l.Start > c.windowEnd:
				keep = append(keep, p) // still ahead: keep for a later window
			case p.l.Start > rootLabel.Start:
				c.append(p.qi, p.l)
			}
			// Candidates before this window's root can no longer be covered
			// by any root candidate and are dropped.
		}
		c.pending = keep
	}
}

func (c *Collector) append(qi int, l Label) {
	// Engines may offer the same candidate more than once (e.g. cached
	// solution nodes); collapse consecutive duplicates.
	if s := c.cands[qi]; len(s) > 0 && s[len(s)-1].Start == l.Start {
		return
	}
	c.cands[qi] = append(c.cands[qi], l)
	c.entries++
	if c.diskBased {
		c.spoolIn += LabelBytes
	}
}

// SetInterrupt binds the engine run's cancellation checker; enumeration
// polls it cooperatively and records quota stops on it, so the binding is
// kept even for hookless interrupters (a hookless Check is two nil tests —
// still effectively free). Reset clears the binding, so engines rebind it
// every run.
func (c *Collector) SetInterrupt(ic *engine.Interrupter) {
	c.ic = ic
}

// SetOutput configures output delivery and early termination for the run
// (all cleared by Reset): every match is rendered as a row appended to out,
// or, when emit is non-nil, handed to emit instead — the row is scratch
// reused for the next match, so sinks copy what they keep; returning false
// stops the run. first > 0 bounds the matches produced (counted after the
// cursor filter). after, when non-nil, must hold one start label per query
// node: only matches strictly greater than it in document order are
// delivered.
func (c *Collector) SetOutput(out *match.Rows, emit func(row []match.Node) bool, first int, after []int32) {
	c.out, c.emit, c.first, c.after = out, emit, first, after
}

// Emitted returns the number of matches delivered so far (streamed or
// accumulated, after the cursor filter).
func (c *Collector) Emitted() int { return c.emitted }

// interrupted reports whether the run has stopped — quota met, sink
// declined, or the bound checker tripped (no poll — the engine loops do
// the polling between windows).
func (c *Collector) interrupted() bool {
	return c.stopped || (c.ic != nil && c.ic.Err() != nil)
}

// stop latches early termination and propagates it to the engine loops via
// the shared Interrupter, which unwinds them exactly like a cancellation;
// the engines then treat ErrStop as a successful bounded run.
func (c *Collector) stop() {
	c.stopped = true
	if c.ic != nil {
		c.ic.Stop()
	}
}

// Flush enumerates the current window and resets it. It is a no-op when no
// window is open or the run has been interrupted (the abandoned window's
// matches would be discarded with the rest of the output anyway).
func (c *Collector) Flush() {
	if !c.open || c.interrupted() {
		return
	}
	if c.after != nil && c.windowEnd < c.after[0] {
		// Every match in this window is rooted at or before windowEnd,
		// which precedes the cursor's root start: resumption seeks past the
		// whole window without enumerating (or spooling) it.
		c.discardWindow()
		return
	}
	if c.PreFlush != nil {
		c.PreFlush(c.windowStart, c.windowEnd)
	}
	if c.entries > c.peakEntries {
		c.peakEntries = c.entries
	}
	if c.diskBased && c.spoolIn > 0 {
		pages := (c.spoolIn + int64(c.pageSize) - 1) / int64(c.pageSize)
		c.io.Write(pages)         // spool the window out ...
		c.io.C.PagesRead += pages // ... and read it back for enumeration
		c.spoolIn = 0
	}
	if c.tr != nil {
		c.tr.BeginPhase(obs.PhaseEnumerate)
		c.enumerate()
		c.tr.EndPhase(obs.PhaseEnumerate)
	} else {
		c.enumerate()
	}
	c.discardWindow()
}

// Advance tells the collector that every candidate the engine will Add
// from now on starts at or after frontier. Both engines pick their next
// candidate as a document-order minimum over forward-only cursors, so the
// bound is sound: any region ending before the frontier is finished.
//
// In a bounded or sink-driven run this may partially flush the open
// window. The §VI queries are all rooted at //site — one element spanning
// the whole document — so the collector's only window closes at end of
// scan and plain window streaming would deliver nothing early. Partial
// flushing restores the first-k payoff: matches confined to sub-regions
// the frontier has passed are final, so they are emitted (tripping the
// quota and stopping the scan) and their candidates discarded, keeping
// the window bounded by the open regions instead of the full document.
func (c *Collector) Advance(frontier int32) {
	if c.emit == nil && c.first <= 0 {
		return // accumulating full run: keep the historical path untouched
	}
	if !c.open || c.interrupted() || len(c.spine) == 0 {
		return
	}
	if c.entries < c.nextPartial {
		return
	}
	c.partialFlush(frontier)
	c.nextPartial = c.entries + c.entries/2 + partialTrigger
}

// partialFlush emits the finished prefix of the open window: every match
// whose bindings all start before the partial bound (see partialBound).
// Emission reuses enumerate on prefix-truncated candidate lists — the
// bottom-up filter is exact on the truncation because a closed region's
// subtree matches only involve candidates inside it, all before the
// bound; and the ok bits it computes are final because future candidates
// cannot land inside a closed region. Candidates wholly before the bound
// are then discarded: containers reaching past it are kept, since they
// may still combine with future candidates.
func (c *Collector) partialFlush(frontier int32) {
	if c.after != nil && c.windowEnd < c.after[0] {
		return // whole window precedes the cursor; Flush will discard it
	}
	c.normalize()
	if len(c.cands[0]) != 1 {
		// A nested root candidate orders all its tuples after the outer
		// root's still-growing ones; emitting anything now could
		// interleave, so wait for the window to close.
		return
	}
	if c.after != nil && c.cands[0][0].Start < c.after[0] {
		return // every tuple rooted here precedes the cursor
	}
	bound := c.partialBound(frontier)
	if c.PreFlush != nil && bound > c.windowStart {
		// Pull the removed-node candidates the emitted region needs
		// (ViewJoin's §IV-B extension); extension may reveal an earlier
		// open candidate, so re-tighten the bound afterwards.
		c.PreFlush(c.windowStart, bound)
		c.normalize()
		bound = c.partialBound(frontier)
	}
	if bound <= c.windowStart {
		return // no region has finished yet: nothing is final
	}
	if c.entries > c.peakEntries {
		c.peakEntries = c.entries
	}
	if c.diskBased && c.spoolIn > 0 {
		pages := (c.spoolIn + int64(c.pageSize) - 1) / int64(c.pageSize)
		c.io.Write(pages)
		c.io.C.PagesRead += pages
		c.spoolIn = 0
	}
	n := c.q.Size()
	for qi := 1; qi < n; qi++ {
		c.full[qi] = c.cands[qi]
		c.cands[qi] = c.cands[qi][:searchStartsAbove(c.cands[qi], bound-1)]
	}
	if c.tr != nil {
		c.tr.BeginPhase(obs.PhaseEnumerate)
		c.enumerate()
		c.tr.EndPhase(obs.PhaseEnumerate)
	} else {
		c.enumerate()
	}
	c.entries = len(c.cands[0])
	for qi := 1; qi < n; qi++ {
		list := c.full[qi]
		c.full[qi] = nil
		keep := list[:0]
		for _, l := range list {
			if l.End >= bound {
				keep = append(keep, l)
			}
		}
		c.cands[qi] = keep
		c.entries += len(keep)
	}
	if bound > c.flushedBound {
		c.flushedBound = bound
	}
}

// partialBound returns the partial-flush boundary: no future or unemitted
// match can have a binding ordering before it. Matches compare
// lexicographically by start tuple, and every binding of a match that is
// still incomplete sits inside an open (End >= frontier) candidate at
// each spine level — so the earliest open candidate of every
// multi-candidate spine level caps the bound. A spine level with a single
// candidate is skipped: all of the window's matches bind that one
// candidate, so it can never order a future match before an emitted one
// (later arrivals at that level start at or after the frontier). Branch
// nodes below the spine need no bound of their own: their candidates are
// confined to the enclosing spine-tail region, which the bound already
// proves closed.
func (c *Collector) partialBound(frontier int32) int32 {
	b := frontier
	for i, qi := range c.spine {
		list := c.cands[qi]
		// The spine tail is the pattern's first branching node: its children
		// cross-product freely inside each tail candidate (siblings join only
		// through their common tail ancestor), so no tuple inside an open
		// tail candidate is final — the earliest open candidate caps the
		// bound even when the list holds a single entry.
		branchingTail := i == len(c.spine)-1 && len(c.q.Nodes[qi].Children) > 1
		if len(list) <= 1 && !branchingTail {
			continue
		}
		for _, l := range list {
			if l.End >= frontier {
				if l.Start < b {
					b = l.Start
				}
				break // sorted by start: later open candidates start later
			}
		}
	}
	return b
}

// discardWindow clears the current window's candidates without enumerating
// them.
func (c *Collector) discardWindow() {
	for qi := range c.cands {
		c.cands[qi] = c.cands[qi][:0]
	}
	c.entries = 0
	c.spoolIn = 0
	c.open = false
}

// Finish flushes any open window and stamps the Matches counter: the
// number of matches delivered, which for a bounded run is the bounded
// count, not the query's full cardinality.
func (c *Collector) Finish() {
	c.Flush()
	c.io.C.Matches = int64(c.emitted)
}

// PeakEntries returns the size (in entries) of the largest window held in
// memory — the |F_max| of the paper's space analysis. For the disk-based
// approach the resident set is O(|Q|·depth) instead; callers report
// accordingly.
func (c *Collector) PeakEntries() int { return c.peakEntries }

// MemoryBytes converts PeakEntries to bytes using the scratch record size.
func (c *Collector) MemoryBytes() int64 { return int64(c.peakEntries) * LabelBytes }

// normalize restores per-list document order and uniqueness. Candidate
// lists are normally produced in document order, but pending drains and
// PreFlush extensions may interleave; the binary searches in enumerate
// require sorted, duplicate-free lists.
func (c *Collector) normalize() {
	for qi := range c.cands {
		list := c.cands[qi]
		sorted := true
		for i := 1; i < len(list); i++ {
			if list[i].Start < list[i-1].Start {
				sorted = false
				break
			}
		}
		if !sorted {
			sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		}
		out := list[:0]
		for i := range list {
			if len(out) == 0 || out[len(out)-1].Start != list[i].Start {
				out = append(out, list[i])
			}
		}
		c.cands[qi] = out
	}
}

// enumerate emits every embedding of q within the current window.
func (c *Collector) enumerate() {
	n := c.q.Size()
	c.normalize()

	// Bottom-up filter: ok[qi][j] reports whether candidate j of query node
	// qi has a full subtree match below it within the window. okStarts[qi]
	// holds the surviving candidates' starts (ad-edge existence checks);
	// okLevels[qi] groups them by level (pc-edges only).
	for qi := n - 1; qi >= 0; qi-- {
		list := c.cands[qi]
		if cap(c.ok[qi]) < len(list) {
			c.ok[qi] = make([]bool, len(list))
		}
		c.ok[qi] = c.ok[qi][:len(list)]
		starts := c.okStarts[qi][:0]
		groups := c.okLevels[qi]
		for g := range groups {
			groups[g].starts = groups[g].starts[:0]
		}
		for j := range list {
			if c.ic != nil && c.ic.Check() != nil {
				return
			}
			cand := list[j]
			good := true
			if qi == 0 && c.q.Nodes[0].Axis == tpq.Child && cand.Level != 0 {
				good = false // "/a" binds only the document root
			}
			for _, qc := range c.q.Nodes[qi].Children {
				if !good {
					break
				}
				c.io.C.Comparisons++
				switch c.q.Nodes[qc].Axis {
				case tpq.Descendant:
					good = hasInRange(c.okStarts[qc], cand.Start, cand.End)
				case tpq.Child:
					good = hasInRange(levelStarts(c.okLevels[qc], cand.Level+1), cand.Start, cand.End)
				}
			}
			c.ok[qi][j] = good
			if good {
				starts = append(starts, cand.Start)
				if c.needLevel[qi] {
					groups = addToLevel(groups, cand.Level, cand.Start)
				}
			}
		}
		c.okStarts[qi] = starts
		c.okLevels[qi] = groups
	}

	if len(c.okStarts[0]) == 0 {
		return
	}

	// Top-down enumeration in pattern pre-order. The recursion polls the
	// cancellation checker per emitted tuple: a window whose cross product
	// explodes must still honour the request deadline (the §IV space
	// analysis bounds the window, not its enumeration). rec returns false
	// to unwind the whole enumeration — cancellation, quota met, or the
	// sink declining more matches.
	//
	// Order invariant: windows close in ascending root-start order, the
	// root loop walks cands[0] ascending, and rec extends the tuple in
	// pattern pre-order over start-sorted lists — so matches are produced
	// exactly in document order, which is what makes streamed
	// LIMIT/OFFSET and the cursor filter exact without any buffering.
	var rec func(qi int) bool
	rec = func(qi int) bool {
		if qi == n {
			if c.ic != nil && c.ic.Check() != nil {
				return false
			}
			if c.flushedBound > c.windowStart && c.tupleBefore(c.flushedBound) {
				return true // already emitted by an earlier partial flush
			}
			if c.after != nil && !c.tupleAfterCursor() {
				return true // at or before the resumption cursor: skip
			}
			c.io.MarkFirstMatch()
			if c.emit != nil {
				engine.Render(c.row, c.q, c.cur)
				if !c.emit(c.row) {
					c.stop()
					return false
				}
			} else {
				engine.Render(c.out.Next(), c.q, c.cur)
			}
			c.emitted++
			if c.first > 0 && c.emitted >= c.first {
				c.stop()
				return false
			}
			return true
		}
		parent := c.cur[c.q.Nodes[qi].Parent]
		list := c.cands[qi]
		lo := searchStartsAbove(list, parent.Start)
		for j := lo; j < len(list) && list[j].Start < parent.End; j++ {
			if c.interrupted() {
				return false
			}
			c.io.C.Comparisons++
			if !c.ok[qi][j] {
				continue
			}
			if c.q.Nodes[qi].Axis == tpq.Child && list[j].Level != parent.Level+1 {
				continue
			}
			c.cur[qi] = list[j]
			if !rec(qi + 1) {
				return false
			}
		}
		return true
	}
	for j, cand := range c.cands[0] {
		if !c.ok[0][j] {
			continue
		}
		if c.interrupted() {
			return
		}
		if c.after != nil && cand.Start < c.after[0] {
			continue // every tuple rooted here precedes the cursor
		}
		c.cur[0] = cand
		if !rec(1) {
			return
		}
	}
}

// tupleBefore reports whether every binding of the current tuple starts
// before b. Such a tuple was fully enumerable at the partial flush whose
// bound was b — every binding was present (Advance guarantees future adds
// start at or after the frontier, and b never exceeds it) and its ok bits
// held (each node's subtree requirement is witnessed by the tuple's own
// child bindings, all before b) — so it was emitted then.
func (c *Collector) tupleBefore(b int32) bool {
	for k := range c.cur {
		if c.cur[k].Start >= b {
			return false
		}
	}
	return true
}

// tupleAfterCursor reports whether the current tuple's start labels are
// lexicographically greater than the resumption cursor — i.e. the match
// falls strictly after the page the cursor closed.
func (c *Collector) tupleAfterCursor() bool {
	for k := range c.cur {
		if s := c.cur[k].Start; s != c.after[k] {
			return s > c.after[k]
		}
	}
	return false // exactly the cursor match: already delivered
}

// levelStarts returns the surviving starts recorded for a level.
func levelStarts(groups []levelGroup, level int32) []int32 {
	for g := range groups {
		if groups[g].level == level {
			return groups[g].starts
		}
	}
	return nil
}

// addToLevel appends a start to its level group, creating the group on
// first use (empty groups left over from earlier windows are reused).
func addToLevel(groups []levelGroup, level, start int32) []levelGroup {
	for g := range groups {
		if groups[g].level == level {
			groups[g].starts = append(groups[g].starts, start)
			return groups
		}
	}
	// Reuse an emptied slot with a different level if available.
	for g := range groups {
		if len(groups[g].starts) == 0 {
			groups[g].level = level
			groups[g].starts = append(groups[g].starts, start)
			return groups
		}
	}
	return append(groups, levelGroup{level: level, starts: []int32{start}})
}

// searchStartsAbove returns the index of the first candidate with
// Start > s (hand-rolled binary search on the hot enumeration path).
func searchStartsAbove(list []Label, s int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].Start <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hasInRange reports whether the sorted slice holds a value in the open
// interval (lo, hi).
func hasInRange(sorted []int32, lo, hi int32) bool {
	a, b := 0, len(sorted)
	for a < b {
		mid := int(uint(a+b) >> 1)
		if sorted[mid] <= lo {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return a < len(sorted) && sorted[a] < hi
}

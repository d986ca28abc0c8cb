package match

// Node is one cell of a rendered result row: the element type a query node
// binds and the region label of the bound data node. Patterns match by
// element type, so the tag is the query node's label; the label is the one
// the engines already hold, so rendering needs no document lookup.
type Node struct {
	Tag   string `json:"tag"`
	Start int32  `json:"start"`
	End   int32  `json:"end"`
	Level int32  `json:"level"`
}

// defaultChunkRows sizes the first chunk of a buffer whose run has no
// output quota; maxFirstChunkRows caps a quota-sized first chunk, so a
// huge limit used as "everything" does not allocate its whole quota up
// front.
const (
	defaultChunkRows  = 64
	maxFirstChunkRows = 4096
)

// Rows is an append-only buffer of fixed-width result rows: the cells of
// every row live in a few large chunks instead of one allocation per row.
// The first chunk holds the run's expected row count (its output quota,
// when it has one); each later chunk holds half as many rows as all
// earlier chunks together, so capacity grows 1.5x per chunk, a run
// allocates O(log rows) chunks, and the unfilled tail of the last chunk
// stays under a third of the buffer. Filled cells never move: row slices
// handed out stay valid for the life of the buffer.
//
// The zero value is not usable; call Init first.
type Rows struct {
	width  int
	hint   int      // rows the first chunk holds
	chunks [][]Node // len(chunk) = cells written, cap = chunk size
	n      int
}

// Init readies r for rows of width cells each. firstRows, when positive,
// sizes the first chunk (a run bounded to k matches passes k, so a page
// allocates exactly its rows; quotas beyond maxFirstChunkRows start
// there and grow); otherwise a small default is used.
func (r *Rows) Init(width, firstRows int) {
	if firstRows <= 0 {
		firstRows = defaultChunkRows
	}
	firstRows = min(firstRows, maxFirstChunkRows)
	*r = Rows{width: width, hint: firstRows}
}

// Len returns the number of rows appended.
func (r *Rows) Len() int { return r.n }

// Next appends a row and returns its cells for the caller to fill.
func (r *Rows) Next() []Node {
	last := len(r.chunks) - 1
	if last < 0 || cap(r.chunks[last])-len(r.chunks[last]) < r.width {
		rows := r.hint
		if last >= 0 {
			rows = max(r.hint, r.n/2)
		}
		r.Reserve(rows)
		last = len(r.chunks) - 1
	}
	c := r.chunks[last]
	i := len(c)
	r.chunks[last] = c[:i+r.width]
	r.n++
	return c[i : i+r.width : i+r.width]
}

// Reserve makes room for at least rows more rows without a further
// allocation. An engine that knows its exact output size up front (one
// that sorts before rendering) reserves it, so its buffer is one exact
// chunk.
func (r *Rows) Reserve(rows int) {
	if last := len(r.chunks) - 1; last >= 0 && cap(r.chunks[last])-len(r.chunks[last]) >= rows*r.width {
		return
	}
	if rows <= 0 || r.width == 0 {
		return
	}
	r.chunks = append(r.chunks, make([]Node, 0, rows*r.width))
}

// rowCursor walks a buffer's rows in append order.
type rowCursor struct {
	r     *Rows
	chunk int
	off   int // cell offset within the chunk
}

func (c *rowCursor) valid() bool {
	return c.chunk < len(c.r.chunks) && c.off < len(c.r.chunks[c.chunk])
}

func (c *rowCursor) row() []Node {
	ch := c.r.chunks[c.chunk]
	return ch[c.off : c.off+c.r.width : c.off+c.r.width]
}

func (c *rowCursor) next() {
	c.off += c.r.width
	if c.off >= len(c.r.chunks[c.chunk]) {
		c.chunk++
		c.off = 0
	}
}

// Slice returns rows [lo, hi) — hi < 0 for no upper bound — as row slices
// into the buffer's cells, in an outer slice of exactly the page's length
// (empty, never nil); the bounds are clamped to the buffer. Each row's
// capacity is its width, so appending to a row never overwrites its
// neighbour.
func (r *Rows) Slice(lo, hi int) [][]Node {
	if hi < 0 || hi > r.n {
		hi = r.n
	}
	if lo >= hi {
		return [][]Node{}
	}
	out := make([][]Node, hi-lo)
	c := rowCursor{r: r}
	for i := 0; i < hi; i++ {
		if i >= lo {
			out[i-lo] = c.row()
		}
		c.next()
	}
	return out
}

// rowLess orders rows lexicographically by start label, query node by
// query node: document order, the order every engine emits.
func rowLess(a, b []Node) bool {
	for i := range a {
		if a[i].Start != b[i].Start {
			return a[i].Start < b[i].Start
		}
	}
	return false
}

// Merge k-way merges buffers whose rows are each in document order and
// returns merged rows [lo, hi) — hi < 0 for no upper bound — as row slices
// into the buffers' cells, in an outer slice of exactly the page's length
// (empty, never nil). No cell is copied. Ties keep the earlier buffer's
// row first.
func Merge(parts []*Rows, lo, hi int) [][]Node {
	total := 0
	for _, p := range parts {
		total += p.n
	}
	if hi < 0 || hi > total {
		hi = total
	}
	if lo >= hi {
		return [][]Node{}
	}
	curs := make([]rowCursor, len(parts))
	for i, p := range parts {
		curs[i] = rowCursor{r: p}
	}
	out := make([][]Node, hi-lo)
	for k := 0; k < hi; k++ {
		best := -1
		for i := range curs {
			if !curs[i].valid() {
				continue
			}
			if best < 0 || rowLess(curs[i].row(), curs[best].row()) {
				best = i
			}
		}
		if k >= lo {
			out[k-lo] = curs[best].row()
		}
		curs[best].next()
	}
	return out
}

package match

import "testing"

// fill appends rows whose cells carry the given start tuples.
func fill(r *Rows, starts ...[]int32) {
	for _, s := range starts {
		row := r.Next()
		for k := range row {
			row[k] = Node{Tag: "t", Start: s[k], End: s[k] + 1, Level: int32(k)}
		}
	}
}

func startsOf(rows [][]Node) [][]int32 {
	out := make([][]int32, len(rows))
	for i, row := range rows {
		for _, c := range row {
			out[i] = append(out[i], c.Start)
		}
	}
	return out
}

func TestRowsChunksAndSlice(t *testing.T) {
	var r Rows
	r.Init(2, 4)
	for i := int32(0); i < 20; i++ {
		fill(&r, []int32{i, 100 + i})
	}
	// 4 + max(4, 4/2) + 8/2 + 12/2 = 4+4+4+6 = 18 < 20: a fifth chunk of 9.
	if got := len(r.chunks); got != 5 {
		t.Errorf("20 rows from a 4-row first chunk use %d chunks, want 5", got)
	}
	if r.Len() != 20 {
		t.Fatalf("Len = %d", r.Len())
	}
	page := r.Slice(3, 7)
	if len(page) != 4 || cap(page) != 4 {
		t.Fatalf("Slice(3,7): len %d cap %d, want 4 4", len(page), cap(page))
	}
	for i, row := range page {
		if row[0].Start != int32(3+i) || row[1].Start != int32(103+i) || cap(row) != 2 {
			t.Errorf("row %d = %+v (cap %d)", i, row, cap(row))
		}
	}
	if all := r.Slice(0, -1); len(all) != 20 || all[19][0].Start != 19 {
		t.Errorf("Slice(0,-1) returned %d rows", len(all))
	}
	if got := r.Slice(18, 99); len(got) != 2 {
		t.Errorf("Slice past the end returned %d rows, want 2", len(got))
	}
	if got := r.Slice(25, -1); got == nil || len(got) != 0 {
		t.Errorf("Slice beyond the buffer = %v, want empty non-nil", got)
	}
}

func TestRowsFirstChunk(t *testing.T) {
	var r Rows
	r.Init(3, 20)
	fill(&r, []int32{1, 2, 3})
	if c := cap(r.chunks[0]); c != 20*3 {
		t.Errorf("a 20-row quota's first chunk holds %d cells, want 60", c)
	}
	r.Init(3, 1<<20)
	fill(&r, []int32{1, 2, 3})
	if c := cap(r.chunks[0]); c != maxFirstChunkRows*3 {
		t.Errorf("a huge quota's first chunk holds %d cells, want %d", c, maxFirstChunkRows*3)
	}
	r.Init(3, 0)
	r.Reserve(7)
	for i := 0; i < 7; i++ {
		fill(&r, []int32{1, 2, 3})
	}
	if len(r.chunks) != 1 || cap(r.chunks[0]) != 21 {
		t.Errorf("Reserve(7) then 7 rows: %d chunks, first cap %d; want 1, 21", len(r.chunks), cap(r.chunks[0]))
	}
}

func TestMerge(t *testing.T) {
	var a, b, c Rows
	a.Init(2, 0)
	b.Init(2, 0)
	c.Init(2, 0)
	fill(&a, []int32{1, 5}, []int32{3, 4}, []int32{7, 8})
	fill(&b, []int32{1, 2}, []int32{3, 9}, []int32{6, 7})
	parts := []*Rows{&a, &b, &c}
	want := [][]int32{{1, 2}, {1, 5}, {3, 4}, {3, 9}, {6, 7}, {7, 8}}
	got := startsOf(Merge(parts, 0, -1))
	if len(got) != len(want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("Merge = %v, want %v", got, want)
		}
	}
	page := startsOf(Merge(parts, 2, 4))
	if len(page) != 2 || page[0][1] != 4 || page[1][1] != 9 {
		t.Errorf("Merge(2,4) = %v, want [[3 4] [3 9]]", page)
	}
	if got := Merge(parts, 6, -1); got == nil || len(got) != 0 {
		t.Errorf("Merge past the end = %v, want empty non-nil", got)
	}
}

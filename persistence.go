package viewjoin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"viewjoin/internal/store"
	"viewjoin/internal/xmltree"
)

// ErrViewTruncated reports that a saved-view stream ended before the
// serialized content it promised — a partial write, a truncated file, or a
// stream cut mid-transfer. LoadView errors match it with errors.Is.
var ErrViewTruncated = errors.New("viewjoin: saved view is truncated")

// DocMismatchError reports that a saved view was materialized from a
// different document than the one it is being loaded into: the view's
// pointers and region labels are only meaningful for its own document.
// LoadView errors match it with errors.As.
type DocMismatchError struct {
	// Saved and Want are the structural fingerprints of the view's original
	// document and of the document passed to LoadView.
	Saved, Want uint64
}

func (e *DocMismatchError) Error() string {
	return fmt.Sprintf("viewjoin: view was saved against a different document (fingerprint %x != %x)",
		e.Saved, e.Want)
}

// SaveView serializes a materialized view (scheme, pattern, and paged
// content) so it can be reloaded later with LoadView instead of being
// re-materialized. The document itself is not embedded; a small
// fingerprint is written so LoadView can reject a mismatched document.
func (v *MaterializedView) SaveView(w io.Writer) (int64, error) {
	s := v.st()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], treeFingerprint(s.tree))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := s.store.WriteTo(w)
	return n + 8, err
}

// SaveViewFile writes the view to path atomically: the container is
// serialized to a temporary file in the same directory, synced, and
// renamed over path only once complete. A crash or write error never
// leaves a truncated container at path — readers see either the old file
// or the new one.
func (v *MaterializedView) SaveViewFile(path string) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	n, err := v.SaveView(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// LoadView reloads a view saved with SaveView, binding it to d. It fails
// when the view was saved against a different document (fingerprint
// mismatch): pointers and region labels are only meaningful for the
// document the view was materialized from.
//
// Loaded views evaluate exactly like freshly materialized ones; only
// MaterializeResult-style raw access to the in-memory materialization is
// unavailable (ListSizes and the selection API still work, computed from
// the on-disk lists).
func (d *Document) LoadView(r io.Reader) (*MaterializedView, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, loadErr(err)
	}
	// The buffer is private to the view, so unlike LoadViewBytes no backend
	// owns it and the view stays maintainable.
	return d.adoptView(data, nil)
}

// LoadViewBytes is LoadView over an in-memory file image, and is the
// zero-copy path: the returned view's paged segments are slices of data,
// adopted without decoding or copying records. The caller must not mutate
// data after a successful load (reading a whole file with os.ReadFile, or
// memory-mapping it read-only, both satisfy this). Views loaded this way
// can be served concurrently: the segments are immutable and every reader
// carries its own cursor state.
func (d *Document) LoadViewBytes(data []byte) (*MaterializedView, error) {
	return d.adoptView(data, store.NewResidentBackend(data))
}

// OpenView loads a saved view file through the resident storage backend:
// the whole container is read into the heap and sliced zero-copy, exactly
// like LoadViewBytes over os.ReadFile, but the returned view carries its
// Backend so Release can drop the buffer deterministically.
func (d *Document) OpenView(path string) (*MaterializedView, error) {
	be, err := store.OpenResident(path)
	if err != nil {
		return nil, loadErr(err)
	}
	return d.adoptView(be.Bytes(), be)
}

// LoadViewMmap memory-maps a saved view file read-only and slices the
// page-padded segments straight out of the mapping: the view costs
// address space and page-cache pages, not heap, which is what lets a
// process hold orders of magnitude more cold views than RAM-resident
// loading allows. Validation is identical to LoadViewBytes (header
// checks, pointer bounds, fingerprint), so a truncated or corrupt file
// surfaces as ErrViewTruncated or a validation error — never a fault.
//
// The mapping stays open until Release is called on the returned view;
// after Release the view must not be read (the pages are returned to the
// kernel). On platforms without mmap support the error matches
// store.ErrMmapUnsupported via errors.Is, and callers fall back to
// OpenView.
func (d *Document) LoadViewMmap(path string) (*MaterializedView, error) {
	be, err := store.OpenMmap(path)
	if err != nil {
		return nil, loadErr(err)
	}
	mv, err := d.adoptView(be.Bytes(), be)
	if err != nil {
		be.Close()
		return nil, err
	}
	return mv, nil
}

// adoptView validates and adopts a container image: the fingerprint
// header, then the store. be, when non-nil, owns data; on success the view
// owns be, on failure the caller does.
func (d *Document) adoptView(data []byte, be store.Backend) (*MaterializedView, error) {
	snap := d.snap()
	if len(data) < 8 {
		return nil, loadErr(fmt.Errorf("reading fingerprint: %w", io.ErrUnexpectedEOF))
	}
	want := treeFingerprint(snap.tree)
	if got := binary.LittleEndian.Uint64(data[:8]); got != want {
		return nil, &DocMismatchError{Saved: got, Want: want}
	}
	st, err := store.ReadViewStoreBytes(data[8:])
	if err != nil {
		return nil, loadErr(err)
	}
	return newView(d, snap, st.View, nil, st, be), nil
}

// Resident reports whether the view's paged segments occupy heap memory.
// Materialized views and views loaded via LoadView/LoadViewBytes/OpenView
// are resident; LoadViewMmap views are not — their segments live in the
// file mapping. Residency is invisible to evaluation (same cursors, same
// results); it only decides what the view costs in RAM.
func (v *MaterializedView) Resident() bool {
	return v.backend == nil || v.backend.Resident()
}

// Release unwinds the view's storage backend: munmap for mmap-backed
// views, dropping the buffer reference for resident loads, a no-op for
// views materialized in memory. After releasing an mmap-backed view no
// evaluation may touch it — callers (like vjserve's residency manager)
// release only once no in-flight reader can remain. Release is
// idempotent.
func (v *MaterializedView) Release() error {
	if v.backend == nil {
		return nil
	}
	return v.backend.Close()
}

// FootprintBytes returns the page-granular size of the view's paged
// segments — the unit vjserve's residency accounting charges a view at,
// whether those pages are heap (resident tier) or mapped (cold tier).
func (v *MaterializedView) FootprintBytes() int64 { return v.st().store.SizeBytes() }

// loadErr wraps a low-level read error for LoadView, folding the two EOF
// flavors into ErrViewTruncated: io.EOF from a header read and
// io.ErrUnexpectedEOF from a partial body both mean the stream ended
// before the content the format promised.
func loadErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("viewjoin: load view: %w: %w", ErrViewTruncated, err)
	}
	return fmt.Errorf("viewjoin: load view: %w", err)
}

// treeFingerprint computes a cheap structural fingerprint of one document
// snapshot (FNV-1a over the region labels of a node sample), used to pair
// saved views with their document. It is per-snapshot: an update changes
// the fingerprint, so a view saved before an Apply does not load against
// the updated document.
func treeFingerprint(t *xmltree.Document) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v int32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	n := t.NumNodes()
	mix(int32(n))
	step := n/64 + 1
	for i := 0; i < n; i += step {
		nd := t.Node(xmltree.NodeID(i))
		mix(nd.Start)
		mix(nd.End)
		mix(nd.Level)
	}
	return h
}

package filestore

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func newStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Create(filepath.Join(t.TempDir(), "pages.dat"), 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func page(b byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestRoundTripAndZeroFill(t *testing.T) {
	for _, opts := range []Options{{}, {NoMmap: true}} {
		s := newStore(t, opts)
		if err := s.Allocate(16); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(3, page(0xAB, 64)); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(5, page(0xCD, 64)); err != nil {
			t.Fatal(err)
		}
		// Vectored read spanning written pages and holes.
		got := page(0xFF, 4*64)
		if err := s.ReadPages(2, 4, got); err != nil {
			t.Fatal(err)
		}
		want := append(append(append(
			page(0, 64), page(0xAB, 64)...), page(0, 64)...), page(0xCD, 64)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("opts %+v: vectored read mismatch", opts)
		}
		one := make([]byte, 64)
		if err := s.ReadPages(5, 1, one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one, page(0xCD, 64)) {
			t.Fatal("single-page read mismatch")
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMmapAndPreadAgree(t *testing.T) {
	mm := newStore(t, Options{})
	pr := newStore(t, Options{NoMmap: true})
	if !mm.Mapped() {
		t.Skip("mmap unavailable on this platform")
	}
	if pr.Mapped() {
		t.Fatal("NoMmap store reports a mapping")
	}
	for _, s := range []*Store{mm, pr} {
		for i := storage.PageID(0); i < 40; i += 3 {
			if err := s.WritePage(i, page(byte(i+1), 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := make([]byte, 40*64), make([]byte, 40*64)
	if err := mm.ReadPages(0, 40, a); err != nil {
		t.Fatal(err)
	}
	if err := pr.ReadPages(0, 40, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("mmap and pread paths disagree")
	}
	for i := storage.PageID(0); i < 40; i++ {
		want := page(0, 64)
		if i%3 == 0 {
			want = page(byte(i+1), 64)
		}
		if !bytes.Equal(a[i*64:(i+1)*64], want) {
			t.Fatalf("page %d reads back wrong", i)
		}
	}
	// The reads stayed inside the window, so the mapped store still
	// serves from it and the pread store never mapped.
	if !mm.Mapped() || pr.Mapped() {
		t.Fatalf("after reads: mapped store Mapped=%v, NoMmap store Mapped=%v", mm.Mapped(), pr.Mapped())
	}
}

func TestGrowthRemapsAndReadsBack(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.WritePage(1, page(0x11, 64)); err != nil {
		t.Fatal(err)
	}
	// Grow far beyond the initial capacity, forcing truncate + remap.
	if err := s.Allocate(minPages * 8); err != nil {
		t.Fatal(err)
	}
	far := storage.PageID(minPages*8 - 1)
	if err := s.WritePage(far, page(0x22, 64)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := s.ReadPages(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0x11, 64)) {
		t.Fatal("pre-growth page lost after remap")
	}
	if err := s.ReadPages(far, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0x22, 64)) {
		t.Fatal("post-growth page unreadable")
	}
}

func TestStoredPagesAndRelease(t *testing.T) {
	s := newStore(t, Options{})
	for _, id := range []storage.PageID{9, 2, 7, 4} {
		if err := s.WritePage(id, page(byte(id), 64)); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.StoredPages(0)
	want := []storage.PageID{2, 4, 7, 9}
	if len(ids) != len(want) {
		t.Fatalf("stored %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("stored %v, want %v (ascending)", ids, want)
		}
	}
	if got := s.StoredPages(5); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("StoredPages(5) = %v", got)
	}
	if n := s.Release([]storage.PageID{2, 7, 100}); n != 2 {
		t.Fatalf("released %d, want 2", n)
	}
	if got := s.StoredPages(0); len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Fatalf("StoredPages(0) after release = %v, want [4 9]", got)
	}
	buf := page(0xFF, 64)
	if err := s.ReadPages(2, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0, 64)) {
		t.Fatal("released page does not read back zero")
	}
}

func TestTimedAndStats(t *testing.T) {
	for _, opts := range []Options{{}, {NoMmap: true}} {
		s := newStore(t, opts)
		if !s.Timed() {
			t.Fatal("file store must report Timed")
		}
		if err := s.WritePage(0, page(1, 64)); err != nil {
			t.Fatal(err)
		}
		buf := page(0xFF, 3*64)
		if err := s.ReadPages(0, 3, buf); err != nil {
			t.Fatal(err)
		}
		if want := append(page(1, 64), page(0, 2*64)...); !bytes.Equal(buf, want) {
			t.Fatalf("opts %+v: vectored read after one write returned the wrong bytes", opts)
		}
		if opts.NoMmap && s.Mapped() {
			t.Fatal("NoMmap store reports a mapping")
		}
	}
}

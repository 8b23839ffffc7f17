package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

func imageFixture(t *testing.T) *Disk {
	t.Helper()
	d := newTestDisk()
	r := rand.New(rand.NewSource(9))
	// A mix of written and sparse extents.
	a := d.AllocPages(10)
	buf := make([]byte, 5*256)
	r.Read(buf)
	if err := d.WriteBytes(a, buf); err != nil {
		t.Fatal(err)
	}
	d.AllocPages(1000) // sparse
	b := d.AllocPages(3)
	if err := d.WritePage(b+2, []byte("tail page")); err != nil {
		t.Fatal(err)
	}
	return d
}

// runOf serializes d's pages from watermark from.
func runOf(t *testing.T, d *Disk, from PageID) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := d.WriteRunTo(&buf, from)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteRunTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// applyRaw parses raw and applies it to d.
func applyRaw(d *Disk, raw []byte) error {
	r, err := ParseRun(raw)
	if err != nil {
		return err
	}
	return d.ApplyRun(r)
}

// reopen builds a simulated disk from serialized runs the way a database
// opens: run 0's page size picks the media, then every run applies in
// order.
func reopen(t *testing.T, runs ...[]byte) *Disk {
	t.Helper()
	r0, err := ParseRun(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisk(r0.PageSize, DefaultCostModel())
	for _, raw := range runs {
		if err := applyRaw(d, raw); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// sameDisk fails unless a and b hold the same geometry and pages.
func sameDisk(t *testing.T, a, b *Disk) {
	t.Helper()
	if a.PageSize() != b.PageSize() || a.NumPages() != b.NumPages() {
		t.Fatalf("geometry changed: %d/%d vs %d/%d", a.PageSize(), a.NumPages(), b.PageSize(), b.NumPages())
	}
	if a.ResidentBytes() != b.ResidentBytes() {
		t.Fatalf("resident bytes %d vs %d", a.ResidentBytes(), b.ResidentBytes())
	}
	for id := PageID(0); int64(id) < a.NumPages(); id++ {
		pa, err := a.PeekBytes(id, a.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.PeekBytes(id, b.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("page %d differs after round trip", id)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	d := imageFixture(t)
	got := reopen(t, runOf(t, d, 0))
	sameDisk(t, d, got)
	// Fresh statistics.
	if got.Stats() != (Stats{}) {
		t.Fatal("stats not zeroed")
	}
}

// TestRunChainRoundTrip: run 0 plus the runs of two later epochs rebuild
// the evolved disk exactly, and each epoch run carries only its own
// pages.
func TestRunChainRoundTrip(t *testing.T) {
	d := imageFixture(t)
	runs := [][]byte{runOf(t, d, 0)}
	for epoch := 1; epoch <= 2; epoch++ {
		from := PageID(d.NumPages())
		p := d.AllocPages(4)
		if err := d.WritePage(p+1, []byte{byte(epoch)}); err != nil {
			t.Fatal(err)
		}
		raw := runOf(t, d, from)
		r, err := ParseRun(raw)
		if err != nil {
			t.Fatal(err)
		}
		if r.From != from || r.Allocated != PageID(d.NumPages()) || len(r.pages) != 8+d.PageSize() {
			t.Fatalf("epoch %d run: from %d, allocated %d, %d page bytes", epoch, r.From, r.Allocated, len(r.pages))
		}
		runs = append(runs, raw)
	}
	sameDisk(t, d, reopen(t, runs...))
}

// reseal recomputes a run's trailing checksum after a test edits it, so
// the check under test is not the CRC.
func reseal(raw []byte) []byte {
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))
	return raw
}

// TestImageDetectsCorruption: every malformed run fails with ErrBadRun —
// from ParseRun or from ApplyRun — and never panics.
func TestImageDetectsCorruption(t *testing.T) {
	d := imageFixture(t)
	run0 := runOf(t, d, 0)
	from := PageID(d.NumPages())
	p := d.AllocPages(3)
	if err := d.WritePage(p, []byte("epoch page")); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(p+2, []byte("epoch tail")); err != nil {
		t.Fatal(err)
	}
	run1 := runOf(t, d, from)
	allocated := PageID(d.NumPages())
	rec := 8 + d.PageSize()

	edit := func(raw []byte, f func(c []byte)) []byte {
		c := append([]byte(nil), raw...)
		f(c)
		return c
	}
	flip := func(raw []byte, i int) []byte { return edit(raw, func(c []byte) { c[i] ^= 0x5a }) }
	put64 := func(raw []byte, off int, v uint64) []byte {
		return reseal(edit(raw, func(c []byte) { binary.LittleEndian.PutUint64(c[off:], v) }))
	}
	fresh := func() *Disk { return NewDisk(d.PageSize(), DefaultCostModel()) }
	afterRun0 := func() *Disk { return reopen(t, run0) }
	cases := []struct {
		name string
		raw  []byte
		onto func() *Disk
	}{
		{"truncated", run0[:len(run0)-10], fresh},
		{"short", run0[:8], fresh},
		{"empty", nil, fresh},
		{"bad CRC", flip(run0, len(run0)-1), fresh},
		{"flipped page data", flip(run0, len(run0)/2), fresh},
		{"extra garbage", append(append([]byte(nil), run0...), 0xff), fresh},
		{"wrong magic", reseal(flip(run0, 0)), fresh},
		{"wrong version", reseal(edit(run0, func(c []byte) { binary.LittleEndian.PutUint16(c[4:], runVersion+1) })), fresh},
		{"zero page size", reseal(edit(run0, func(c []byte) { binary.LittleEndian.PutUint32(c[8:], 0) })), fresh},
		{"page-size mismatch", run0, func() *Disk { return NewDisk(2*d.PageSize(), DefaultCostModel()) }},
		{"allocation below watermark", put64(run1, 20, uint64(from-1)), afterRun0},
		{"from does not chain", run1, func() *Disk { return reopen(t, run0, run1) }},
		{"run 0 with from != 0", run1, fresh},
		{"stored pages beyond window", put64(run1, 28, uint64(allocated-from)+1), afterRun0},
		{"stored count disagrees with body", put64(run1, 28, 1), afterRun0},
		{"page ID below window", put64(run1, runHeaderSize, uint64(from-1)), afterRun0},
		{"page ID above window", put64(run1, runHeaderSize+rec, uint64(allocated)), afterRun0},
		{"page IDs out of order", put64(run1, runHeaderSize+rec, uint64(from)), afterRun0},
	}
	for _, tc := range cases {
		if err := applyRaw(tc.onto(), tc.raw); !errors.Is(err, ErrBadRun) {
			t.Errorf("%s: err = %v, want ErrBadRun", tc.name, err)
		}
	}
	// The untouched runs still chain.
	sameDisk(t, d, reopen(t, run0, run1))
}

func TestImageEmptyDisk(t *testing.T) {
	d := NewDisk(512, DefaultCostModel())
	got := reopen(t, runOf(t, d, 0))
	if got.NumPages() != 0 || got.PageSize() != 512 {
		t.Fatal("empty disk round trip wrong")
	}
}

func TestImageReopenedDiskUsable(t *testing.T) {
	d := imageFixture(t)
	got := reopen(t, runOf(t, d, 0))
	// Reads charge normally; allocation continues past the image.
	if _, err := got.ReadBytes(0, got.PageSize(), ClassLight); err != nil {
		t.Fatal(err)
	}
	if got.Stats().Reads != 1 {
		t.Fatal("reopened disk not accounting")
	}
	p := got.AllocPages(2)
	if p != PageID(d.NumPages()) {
		t.Fatalf("allocation resumed at %d, want %d", p, d.NumPages())
	}
	if err := got.WritePage(p, []byte("new")); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseRun: arbitrary bytes either fail ParseRun with ErrBadRun or
// parse into a run that applies onto a disk at its watermark and
// re-serializes to the same header and pages.
func FuzzParseRun(f *testing.F) {
	d := NewDisk(64, DefaultCostModel())
	var empty bytes.Buffer
	if _, err := d.WriteRunTo(&empty, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	a := d.AllocPages(6)
	for i := PageID(0); i < 6; i += 2 {
		if err := d.WritePage(a+i, []byte{byte(i + 1), 0xEE}); err != nil {
			f.Fatal(err)
		}
	}
	for _, from := range []PageID{0, 3} {
		var buf bytes.Buffer
		if _, err := d.WriteRunTo(&buf, from); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := ParseRun(raw)
		if err != nil {
			if !errors.Is(err, ErrBadRun) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if r.PageSize > 1<<16 {
			return // keep each execution's page buffers small
		}
		d := NewDisk(r.PageSize, DefaultCostModel())
		if r.From > 0 {
			d.AllocPages(int(r.From))
		}
		if err := d.ApplyRun(r); err != nil {
			t.Fatalf("parsed run does not apply at its watermark: %v", err)
		}
		var out bytes.Buffer
		if _, err := d.WriteRunTo(&out, r.From); err != nil {
			t.Fatal(err)
		}
		back, err := ParseRun(out.Bytes())
		if err != nil {
			t.Fatalf("re-serialized run does not parse: %v", err)
		}
		if back.PageSize != r.PageSize || back.From != r.From || back.Allocated != r.Allocated ||
			!bytes.Equal(back.pages, r.pages) {
			t.Fatal("re-serialized run differs from the parsed one")
		}
	})
}

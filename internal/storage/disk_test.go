package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func newTestDisk() *Disk {
	return NewDisk(256, CostModel{Seek: 10 * time.Millisecond, TransferPage: 1 * time.Millisecond})
}

func TestAllocAndSize(t *testing.T) {
	d := newTestDisk()
	if d.NumPages() != 0 || d.SizeBytes() != 0 {
		t.Fatal("new disk not empty")
	}
	p0 := d.AllocPages(4)
	p1 := d.AllocPages(2)
	if p0 != 0 || p1 != 4 {
		t.Fatalf("allocs at %d, %d", p0, p1)
	}
	if d.NumPages() != 6 || d.SizeBytes() != 6*256 {
		t.Fatalf("pages=%d size=%d", d.NumPages(), d.SizeBytes())
	}
	if got := d.AllocPages(0); got != 6 {
		t.Fatalf("zero alloc at %d", got)
	}
	if d.NumPages() != 7 {
		t.Fatal("zero alloc should clamp to 1 page")
	}
}

func TestPagesFor(t *testing.T) {
	d := newTestDisk()
	cases := []struct {
		bytes int64
		want  int
	}{{0, 1}, {1, 1}, {256, 1}, {257, 2}, {512, 2}, {1000, 4}}
	for _, c := range cases {
		if got := d.PagesFor(c.bytes); got != c.want {
			t.Fatalf("PagesFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestWritePageReadBack(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(2)
	payload := []byte("hello, page")
	if err := d.WritePage(p, payload); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBytes(p, d.PageSize(), ClassLight)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Fatalf("read back %q", got[:len(payload)])
	}
	if len(got) != 256 {
		t.Fatalf("page length %d", len(got))
	}
	// Unwritten page reads zero-filled.
	z, err := d.ReadBytes(p+1, d.PageSize(), ClassLight)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("sparse page not zero")
		}
	}
}

func TestWriteErrors(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(1)
	if err := d.WritePage(p+5, []byte("x")); !IsOutOfRange(err) {
		t.Fatalf("out-of-range write: %v", err)
	}
	if err := d.WritePage(p, make([]byte, 257)); err == nil {
		t.Fatal("oversized write accepted")
	}
	if _, err := d.ReadBytes(PageID(99), d.PageSize(), ClassLight); !IsOutOfRange(err) {
		t.Fatalf("out-of-range read: %v", err)
	}
	if _, err := d.ReadBytes(NilPage, d.PageSize(), ClassLight); !IsOutOfRange(err) {
		t.Fatalf("nil page read: %v", err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	d := newTestDisk()
	data := make([]byte, 1000)
	r := rand.New(rand.NewSource(3))
	r.Read(data)
	start := d.AllocPages(d.PagesFor(int64(len(data))))
	if err := d.WriteBytes(start, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBytes(start, len(data), ClassHeavy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Reading an extent past the end fails.
	if _, err := d.ReadBytes(start, 5000, ClassHeavy); !IsOutOfRange(err) {
		t.Fatalf("overlong read: %v", err)
	}
	if _, err := d.ReadBytes(start, -1, ClassHeavy); err == nil {
		t.Fatal("negative read accepted")
	}
}

func TestIOAccountingClasses(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(10)
	_, _ = d.ReadBytes(p, d.PageSize(), ClassLight)
	_, _ = d.ReadBytes(p+1, d.PageSize(), ClassLight) // sequential
	_ = d.ReadExtent(p+5, 3, ClassHeavy)
	s := d.Stats()
	if s.Reads != 5 {
		t.Fatalf("reads = %d", s.Reads)
	}
	if s.LightReads != 2 || s.HeavyReads != 3 {
		t.Fatalf("light=%d heavy=%d", s.LightReads, s.HeavyReads)
	}
	// Seeks: first read seeks, second is sequential, extent read seeks.
	if s.Seeks != 2 {
		t.Fatalf("seeks = %d", s.Seeks)
	}
	want := 2*10*time.Millisecond + 5*1*time.Millisecond
	if s.SimTime != want {
		t.Fatalf("sim time = %v, want %v", s.SimTime, want)
	}
}

func TestSequentialVsRandomCost(t *testing.T) {
	// Sequential scan of 100 pages must be far cheaper than 100 random
	// reads — the property the vertical scheme's depth-first V-page layout
	// exploits (§4.2).
	seq := newTestDisk()
	p := seq.AllocPages(100)
	for i := 0; i < 100; i++ {
		_, _ = seq.ReadBytes(p+PageID(i), seq.PageSize(), ClassLight)
	}
	rnd := newTestDisk()
	p2 := rnd.AllocPages(100)
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(100)
	// Ensure the permutation is not accidentally sequential anywhere long.
	for i := 0; i < 100; i++ {
		_, _ = rnd.ReadBytes(p2+PageID(perm[i]), rnd.PageSize(), ClassLight)
	}
	if seq.Stats().SimTime*5 > rnd.Stats().SimTime {
		t.Fatalf("sequential %v not much cheaper than random %v",
			seq.Stats().SimTime, rnd.Stats().SimTime)
	}
}

func TestStatsSubAndReset(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(5)
	_, _ = d.ReadBytes(p, d.PageSize(), ClassLight)
	before := d.Stats()
	_, _ = d.ReadBytes(p+3, d.PageSize(), ClassHeavy)
	delta := d.Stats().Sub(before)
	if delta.Reads != 1 || delta.HeavyReads != 1 || delta.LightReads != 0 {
		t.Fatalf("delta = %+v", delta)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("reset did not zero stats")
	}
}

// TestStatsAddSubEveryField gives every Stats field a distinct non-zero
// value and checks Add and Sub field by field, so a counter added to
// Stats but left out of either hand-written list fails here.
func TestStatsAddSubEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %s; extend this test", va.Type().Field(i).Name, va.Field(i).Kind())
		}
		va.Field(i).SetInt(int64(i+1) * 1000)
		vb.Field(i).SetInt(int64(i + 1))
	}
	sum, diff := reflect.ValueOf(a.Add(b)), reflect.ValueOf(a.Sub(b))
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if got, want := sum.Field(i).Int(), int64(i+1)*1001; got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
		if got, want := diff.Field(i).Int(), int64(i+1)*999; got != want {
			t.Errorf("Sub: %s = %d, want %d", name, got, want)
		}
	}
}

func TestCorruption(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(3)
	_ = d.WriteBytes(p, make([]byte, 700))
	d.CorruptPage(p + 1)
	if _, err := d.ReadBytes(p+1, d.PageSize(), ClassLight); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt read: %v", err)
	}
	if _, err := d.ReadBytes(p, 700, ClassLight); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt extent read: %v", err)
	}
	if err := d.ReadExtent(p, 3, ClassLight); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt ReadExtent: %v", err)
	}
	d.HealPage(p + 1)
	if _, err := d.ReadBytes(p, 700, ClassLight); err != nil {
		t.Fatalf("healed read: %v", err)
	}
	// Other pages unaffected while corrupt.
	d.CorruptPage(p + 2)
	if _, err := d.ReadBytes(p, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("unrelated page: %v", err)
	}
}

func TestResidentVsNominal(t *testing.T) {
	// A large allocated extent with a small written prefix stays sparse.
	d := NewDisk(4096, DefaultCostModel())
	start := d.AllocPages(100000) // 400 MB nominal
	_ = d.WriteBytes(start, make([]byte, 8192))
	if d.SizeBytes() != 100000*4096 {
		t.Fatalf("nominal = %d", d.SizeBytes())
	}
	if d.ResidentBytes() > 3*4096 {
		t.Fatalf("resident = %d, want sparse", d.ResidentBytes())
	}
	// Extent read over sparse region is charged but allocates nothing.
	if err := d.ReadExtent(start, 100000, ClassHeavy); err != nil {
		t.Fatal(err)
	}
	if d.Stats().HeavyReads != 100000 {
		t.Fatalf("heavy reads = %d", d.Stats().HeavyReads)
	}
	if d.ResidentBytes() > 3*4096 {
		t.Fatal("extent read materialized pages")
	}
}

func TestDefaultConstants(t *testing.T) {
	d := NewDisk(0, DefaultCostModel())
	if d.PageSize() != DefaultPageSize {
		t.Fatalf("page size = %d", d.PageSize())
	}
	cm := DefaultCostModel()
	if cm.Seek <= cm.TransferPage {
		t.Fatal("seek should dominate transfer")
	}
}

func TestPropBytesRoundTripAnySize(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, n)
		r.Read(data)
		d := newTestDisk()
		start := d.AllocPages(d.PagesFor(int64(n)))
		if err := d.WriteBytes(start, data); err != nil {
			return false
		}
		got, err := d.ReadBytes(start, n, ClassLight)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

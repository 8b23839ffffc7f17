package storage

import (
	"bytes"
	"reflect"
	"testing"
)

// TestPoolStatsAddEveryField gives every PoolStats field a distinct
// non-zero value and checks Add field by field, so a counter added to
// PoolStats but left out of Add's hand-written list fails here.
func TestPoolStatsAddEveryField(t *testing.T) {
	var a, b PoolStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch k := va.Field(i).Kind(); k {
		case reflect.Int, reflect.Int64:
		default:
			t.Fatalf("PoolStats.%s is %s; extend this test", va.Type().Field(i).Name, k)
		}
		va.Field(i).SetInt(int64(i+1) * 1000)
		vb.Field(i).SetInt(int64(i + 1))
	}
	sum := reflect.ValueOf(a.Add(b))
	for i := 0; i < va.NumField(); i++ {
		if got, want := sum.Field(i).Int(), int64(i+1)*1001; got != want {
			t.Errorf("Add: %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

func TestBufferPoolHitsSkipIO(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(4)
	_ = d.WriteBytes(p, []byte("abcd"))
	d.SetCacheSize(16)

	if _, err := d.ReadBytes(p, d.PageSize(), ClassLight, nil); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	got, err := d.ReadBytes(p, d.PageSize(), ClassLight, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:4], []byte("abcd")) {
		t.Fatal("cached content wrong")
	}
	if delta := d.Stats().Sub(before); delta.Reads != 0 || delta.SimTime != 0 {
		t.Fatalf("cached read charged I/O: %+v", delta)
	}
	ps := d.PoolStats()
	if hits, misses := ps.Hits(), ps.Misses(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestBufferPoolHeavyNotCached(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(2)
	d.SetCacheSize(16)
	_, _ = d.ReadBytes(p, d.PageSize(), ClassHeavy, nil)
	before := d.Stats()
	_, _ = d.ReadBytes(p, d.PageSize(), ClassHeavy, nil)
	if d.Stats().Sub(before).Reads != 1 {
		t.Fatal("heavy read was cached")
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(5)
	d.SetCacheSize(2)
	_, _ = d.ReadBytes(p, d.PageSize(), ClassLight, nil)   // cache: [0]
	_, _ = d.ReadBytes(p+1, d.PageSize(), ClassLight, nil) // cache: [1 0]
	_, _ = d.ReadBytes(p, d.PageSize(), ClassLight, nil)   // hit: [0 1]
	_, _ = d.ReadBytes(p+2, d.PageSize(), ClassLight, nil) // evicts 1: [2 0]
	before := d.Stats()
	_, _ = d.ReadBytes(p, d.PageSize(), ClassLight, nil) // still cached
	if d.Stats().Sub(before).Reads != 0 {
		t.Fatal("page 0 evicted prematurely")
	}
	before = d.Stats()
	_, _ = d.ReadBytes(p+1, d.PageSize(), ClassLight, nil) // was evicted
	if d.Stats().Sub(before).Reads != 1 {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestBufferPoolWriteInvalidates(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(1)
	_ = d.WritePage(p, []byte("old"))
	d.SetCacheSize(4)
	_, _ = d.ReadBytes(p, d.PageSize(), ClassLight, nil) // cache "old"
	if err := d.WritePage(p, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBytes(p, d.PageSize(), ClassLight, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:3], []byte("new")) {
		t.Fatalf("stale cache: %q", got[:3])
	}
}

func TestBufferPoolReadBytesPath(t *testing.T) {
	d := newTestDisk()
	data := make([]byte, 700)
	for i := range data {
		data[i] = byte(i)
	}
	start := d.AllocPages(d.PagesFor(int64(len(data))))
	_ = d.WriteBytes(start, data)
	d.SetCacheSize(8)
	got, err := d.ReadBytes(start, len(data), ClassLight, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("first multi-page read wrong")
	}
	before := d.Stats()
	got, err = d.ReadBytes(start, len(data), ClassLight, nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("cached multi-page read wrong")
	}
	if d.Stats().Sub(before).Reads != 0 {
		t.Fatal("cached multi-page read charged I/O")
	}
}

func TestBufferPoolDisable(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(1)
	d.SetCacheSize(4)
	_, _ = d.ReadBytes(p, d.PageSize(), ClassLight, nil)
	d.SetCacheSize(0)
	if ps := d.PoolStats(); ps.Hits() != 0 || ps.Misses() != 0 {
		t.Fatal("disabled pool reports stats")
	}
	before := d.Stats()
	_, _ = d.ReadBytes(p, d.PageSize(), ClassLight, nil)
	if d.Stats().Sub(before).Reads != 1 {
		t.Fatal("disabled pool still caching")
	}
}

func TestBufferPoolCorruptPropagates(t *testing.T) {
	d := newTestDisk()
	p := d.AllocPages(1)
	d.SetCacheSize(4)
	d.CorruptPage(p)
	if _, err := d.ReadBytes(p, d.PageSize(), ClassLight, nil); err == nil {
		t.Fatal("corrupt page cached/read")
	}
	d.HealPage(p)
	if _, err := d.ReadBytes(p, d.PageSize(), ClassLight, nil); err != nil {
		t.Fatal("healed read failed")
	}
}

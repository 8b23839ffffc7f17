package storage

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// gateShapes are the read shapes every charged media read takes, each
// over a three-page extent through one client. A one-page shape reads
// every page of the extent in turn, whichever of them fails.
var gateShapes = []struct {
	name   string
	pooled bool
	read   func(c *Client, base PageID) []error
}{
	{"bytes1", false, readOnePageEach},
	{"poolmiss", true, readOnePageEach},
	{"bytes3", false, func(c *Client, base PageID) []error {
		_, err := c.ReadBytes(base, 3*gatePageSize, ClassLight)
		return []error{err}
	}},
	{"poolbytes3", true, func(c *Client, base PageID) []error {
		_, err := c.ReadBytes(base, 3*gatePageSize, ClassLight)
		return []error{err}
	}},
	{"extent3", false, func(c *Client, base PageID) []error {
		return []error{c.ReadExtent(base, 3, ClassLight)}
	}},
}

const gatePageSize = 256

// readOnePageEach reads the extent's pages one at a time.
func readOnePageEach(c *Client, base PageID) []error {
	var errs []error
	for i := 0; i < 3; i++ {
		_, err := c.ReadBytes(base+PageID(i), gatePageSize, ClassLight)
		errs = append(errs, err)
	}
	return errs
}

// gateFaults plants one kind of bad page on a disk.
var gateFaults = []struct {
	name  string
	plant func(d *Disk, bad PageID)
}{
	{"quarantined", func(d *Disk, bad PageID) { d.Quarantine(bad) }},
	{"breaker", func(d *Disk, bad PageID) {
		d.SetBreaker(BreakerConfig{RegionPages: 1, Threshold: 1, Cooldown: 100})
		d.breaker.regions[bad] = &breakerRegion{state: regionOpen}
	}},
	{"corrupt", func(d *Disk, bad PageID) { d.CorruptPage(bad) }},
	{"transient", func(d *Disk, bad PageID) { d.InjectPageFault(bad, FaultTransient, 2) }},
	{"corruptretried", func(d *Disk, bad PageID) {
		d.InjectFaults(FaultConfig{})
		d.CorruptPage(bad)
	}},
	{"permanenttrips", func(d *Disk, bad PageID) {
		d.SetBreaker(BreakerConfig{RegionPages: 1, Threshold: 1, Cooldown: 100})
		d.InjectPageFault(bad, FaultPermanent, 0)
	}},
}

// TestReadGateOutcomes pins the read gate — quarantine scan, breaker,
// one cost charge, then each page's fault draw — across every charged
// read shape: each case's errors (type and page), its Stats delta (the
// same on the disk and the client) and its breaker counters must match
// gateWant.
func TestReadGateOutcomes(t *testing.T) {
	for _, shape := range gateShapes {
		for _, fault := range gateFaults {
			for pos, where := range []string{"first", "middle", "last"} {
				name := shape.name + "/" + fault.name + "/" + where
				t.Run(name, func(t *testing.T) {
					d := newTestDisk()
					d.AllocPages(5) // keep the extent off page 0
					base := d.AllocPages(3)
					for i := 0; i < 3; i++ {
						if err := d.WritePage(base+PageID(i), bytes.Repeat([]byte{byte(i + 1)}, gatePageSize)); err != nil {
							t.Fatal(err)
						}
					}
					if shape.pooled {
						d.SetCacheSize(8)
					}
					fault.plant(d, base+PageID(pos))
					c := d.NewClient()
					before := d.Stats()
					var outs []string
					for _, err := range shape.read(c, base) {
						outs = append(outs, gateErr(err))
					}
					delta := d.Stats().Sub(before)
					if cs := c.Stats(); cs != delta {
						t.Errorf("client charged %+v, disk %+v", cs, delta)
					}
					got := fmt.Sprintf("reads=[%s] stats={%s} breaker={%s}",
						strings.Join(outs, " "), nonZero(delta), nonZero(d.BreakerStats()))
					if want := gateWant[name]; got != want {
						t.Errorf("\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}

// gateErr renders an error as its type and the page it names.
func gateErr(err error) string {
	var ce *CorruptError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ce):
		return fmt.Sprintf("corrupt(page=%d,q=%v,tripped=%v)", ce.Page, ce.Quarantined, ce.Tripped)
	}
	return fmt.Sprintf("%T(%v)", err, err)
}

// nonZero renders a struct's non-zero fields as name=value.
func nonZero(v any) string {
	rv := reflect.ValueOf(v)
	var parts []string
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); !f.IsZero() {
			parts = append(parts, fmt.Sprintf("%s=%v", rv.Type().Field(i).Name, f.Interface()))
		}
	}
	return strings.Join(parts, " ")
}

// gateWant is each case's outcome. The Figure 8 I/O counts and the
// fault-tolerance ladder both rest on it, so a change here is a change
// to what every query is charged.
var gateWant = map[string]string{
	"bytes1/quarantined/first":         "reads=[corrupt(page=5,q=true,tripped=false) ok ok] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms} breaker={}",
	"bytes1/quarantined/middle":        "reads=[ok corrupt(page=6,q=true,tripped=false) ok] stats={Reads=2 Seeks=2 LightReads=2 SimTime=22ms} breaker={}",
	"bytes1/quarantined/last":          "reads=[ok ok corrupt(page=7,q=true,tripped=false)] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms} breaker={}",
	"bytes1/breaker/first":             "reads=[corrupt(page=5,q=false,tripped=true) ok ok] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms} breaker={Rejections=1 OpenRegions=1}",
	"bytes1/breaker/middle":            "reads=[ok corrupt(page=6,q=false,tripped=true) ok] stats={Reads=2 Seeks=2 LightReads=2 SimTime=22ms} breaker={Rejections=1 OpenRegions=1}",
	"bytes1/breaker/last":              "reads=[ok ok corrupt(page=7,q=false,tripped=true)] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms} breaker={Rejections=1 OpenRegions=1}",
	"bytes1/corrupt/first":             "reads=[corrupt(page=5,q=false,tripped=false) ok ok] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"bytes1/corrupt/middle":            "reads=[ok corrupt(page=6,q=false,tripped=false) ok] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"bytes1/corrupt/last":              "reads=[ok ok corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"bytes1/transient/first":           "reads=[ok ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"bytes1/transient/middle":          "reads=[ok ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"bytes1/transient/last":            "reads=[ok ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"bytes1/corruptretried/first":      "reads=[corrupt(page=5,q=false,tripped=false) ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"bytes1/corruptretried/middle":     "reads=[ok corrupt(page=6,q=false,tripped=false) ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"bytes1/corruptretried/last":       "reads=[ok ok corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"bytes1/permanenttrips/first":      "reads=[corrupt(page=5,q=false,tripped=false) ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
	"bytes1/permanenttrips/middle":     "reads=[ok corrupt(page=6,q=false,tripped=false) ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
	"bytes1/permanenttrips/last":       "reads=[ok ok corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
	"poolmiss/quarantined/first":       "reads=[corrupt(page=5,q=true,tripped=false) ok ok] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms PoolLightMisses=3} breaker={}",
	"poolmiss/quarantined/middle":      "reads=[ok corrupt(page=6,q=true,tripped=false) ok] stats={Reads=2 Seeks=2 LightReads=2 SimTime=22ms PoolLightMisses=3} breaker={}",
	"poolmiss/quarantined/last":        "reads=[ok ok corrupt(page=7,q=true,tripped=false)] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms PoolLightMisses=3} breaker={}",
	"poolmiss/breaker/first":           "reads=[corrupt(page=5,q=false,tripped=true) ok ok] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms PoolLightMisses=3} breaker={Rejections=1 OpenRegions=1}",
	"poolmiss/breaker/middle":          "reads=[ok corrupt(page=6,q=false,tripped=true) ok] stats={Reads=2 Seeks=2 LightReads=2 SimTime=22ms PoolLightMisses=3} breaker={Rejections=1 OpenRegions=1}",
	"poolmiss/breaker/last":            "reads=[ok ok corrupt(page=7,q=false,tripped=true)] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms PoolLightMisses=3} breaker={Rejections=1 OpenRegions=1}",
	"poolmiss/corrupt/first":           "reads=[corrupt(page=5,q=false,tripped=false) ok ok] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms PoolLightMisses=3} breaker={}",
	"poolmiss/corrupt/middle":          "reads=[ok corrupt(page=6,q=false,tripped=false) ok] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms PoolLightMisses=3} breaker={}",
	"poolmiss/corrupt/last":            "reads=[ok ok corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms PoolLightMisses=3} breaker={}",
	"poolmiss/transient/first":         "reads=[ok ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms PoolLightMisses=3} breaker={}",
	"poolmiss/transient/middle":        "reads=[ok ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms PoolLightMisses=3} breaker={}",
	"poolmiss/transient/last":          "reads=[ok ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms PoolLightMisses=3} breaker={}",
	"poolmiss/corruptretried/first":    "reads=[corrupt(page=5,q=false,tripped=false) ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms PoolLightMisses=3} breaker={}",
	"poolmiss/corruptretried/middle":   "reads=[ok corrupt(page=6,q=false,tripped=false) ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms PoolLightMisses=3} breaker={}",
	"poolmiss/corruptretried/last":     "reads=[ok ok corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms PoolLightMisses=3} breaker={}",
	"poolmiss/permanenttrips/first":    "reads=[corrupt(page=5,q=false,tripped=false) ok ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms PoolLightMisses=3} breaker={Trips=1 OpenRegions=1}",
	"poolmiss/permanenttrips/middle":   "reads=[ok corrupt(page=6,q=false,tripped=false) ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms PoolLightMisses=3} breaker={Trips=1 OpenRegions=1}",
	"poolmiss/permanenttrips/last":     "reads=[ok ok corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms PoolLightMisses=3} breaker={Trips=1 OpenRegions=1}",
	"bytes3/quarantined/first":         "reads=[corrupt(page=5,q=true,tripped=false)] stats={} breaker={}",
	"bytes3/quarantined/middle":        "reads=[corrupt(page=6,q=true,tripped=false)] stats={} breaker={}",
	"bytes3/quarantined/last":          "reads=[corrupt(page=7,q=true,tripped=false)] stats={} breaker={}",
	"bytes3/breaker/first":             "reads=[corrupt(page=5,q=false,tripped=true)] stats={} breaker={Rejections=1 OpenRegions=1}",
	"bytes3/breaker/middle":            "reads=[corrupt(page=6,q=false,tripped=true)] stats={} breaker={Rejections=1 OpenRegions=1}",
	"bytes3/breaker/last":              "reads=[corrupt(page=7,q=false,tripped=true)] stats={} breaker={Rejections=1 OpenRegions=1}",
	"bytes3/corrupt/first":             "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"bytes3/corrupt/middle":            "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"bytes3/corrupt/last":              "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"bytes3/transient/first":           "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"bytes3/transient/middle":          "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"bytes3/transient/last":            "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"bytes3/corruptretried/first":      "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"bytes3/corruptretried/middle":     "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"bytes3/corruptretried/last":       "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"bytes3/permanenttrips/first":      "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
	"bytes3/permanenttrips/middle":     "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
	"bytes3/permanenttrips/last":       "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
	"poolbytes3/quarantined/first":     "reads=[corrupt(page=5,q=true,tripped=false)] stats={PoolLightMisses=1} breaker={}",
	"poolbytes3/quarantined/middle":    "reads=[corrupt(page=6,q=true,tripped=false)] stats={Reads=1 Seeks=1 LightReads=1 SimTime=11ms PoolLightMisses=2} breaker={}",
	"poolbytes3/quarantined/last":      "reads=[corrupt(page=7,q=true,tripped=false)] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms PoolLightMisses=3} breaker={}",
	"poolbytes3/breaker/first":         "reads=[corrupt(page=5,q=false,tripped=true)] stats={PoolLightMisses=1} breaker={Rejections=1 OpenRegions=1}",
	"poolbytes3/breaker/middle":        "reads=[corrupt(page=6,q=false,tripped=true)] stats={Reads=1 Seeks=1 LightReads=1 SimTime=11ms PoolLightMisses=2} breaker={Rejections=1 OpenRegions=1}",
	"poolbytes3/breaker/last":          "reads=[corrupt(page=7,q=false,tripped=true)] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms PoolLightMisses=3} breaker={Rejections=1 OpenRegions=1}",
	"poolbytes3/corrupt/first":         "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=1 Seeks=1 LightReads=1 SimTime=11ms PoolLightMisses=1} breaker={}",
	"poolbytes3/corrupt/middle":        "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=2 Seeks=1 LightReads=2 SimTime=12ms PoolLightMisses=2} breaker={}",
	"poolbytes3/corrupt/last":          "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms PoolLightMisses=3} breaker={}",
	"poolbytes3/transient/first":       "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms PoolLightMisses=3} breaker={}",
	"poolbytes3/transient/middle":      "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms PoolLightMisses=3} breaker={}",
	"poolbytes3/transient/last":        "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms PoolLightMisses=3} breaker={}",
	"poolbytes3/corruptretried/first":  "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=1 Seeks=1 LightReads=1 Retries=3 SimTime=44ms PoolLightMisses=1} breaker={}",
	"poolbytes3/corruptretried/middle": "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=2 Seeks=1 LightReads=2 Retries=3 SimTime=45ms PoolLightMisses=2} breaker={}",
	"poolbytes3/corruptretried/last":   "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms PoolLightMisses=3} breaker={}",
	"poolbytes3/permanenttrips/first":  "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=1 Seeks=1 LightReads=1 Retries=3 SimTime=44ms PoolLightMisses=1} breaker={Trips=1 OpenRegions=1}",
	"poolbytes3/permanenttrips/middle": "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=2 Seeks=1 LightReads=2 Retries=3 SimTime=45ms PoolLightMisses=2} breaker={Trips=1 OpenRegions=1}",
	"poolbytes3/permanenttrips/last":   "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms PoolLightMisses=3} breaker={Trips=1 OpenRegions=1}",
	"extent3/quarantined/first":        "reads=[corrupt(page=5,q=true,tripped=false)] stats={} breaker={}",
	"extent3/quarantined/middle":       "reads=[corrupt(page=6,q=true,tripped=false)] stats={} breaker={}",
	"extent3/quarantined/last":         "reads=[corrupt(page=7,q=true,tripped=false)] stats={} breaker={}",
	"extent3/breaker/first":            "reads=[corrupt(page=5,q=false,tripped=true)] stats={} breaker={Rejections=1 OpenRegions=1}",
	"extent3/breaker/middle":           "reads=[corrupt(page=6,q=false,tripped=true)] stats={} breaker={Rejections=1 OpenRegions=1}",
	"extent3/breaker/last":             "reads=[corrupt(page=7,q=false,tripped=true)] stats={} breaker={Rejections=1 OpenRegions=1}",
	"extent3/corrupt/first":            "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"extent3/corrupt/middle":           "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"extent3/corrupt/last":             "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 SimTime=13ms} breaker={}",
	"extent3/transient/first":          "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"extent3/transient/middle":         "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"extent3/transient/last":           "reads=[ok] stats={Reads=3 Seeks=1 LightReads=3 Retries=2 SimTime=35ms} breaker={}",
	"extent3/corruptretried/first":     "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"extent3/corruptretried/middle":    "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"extent3/corruptretried/last":      "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={}",
	"extent3/permanenttrips/first":     "reads=[corrupt(page=5,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
	"extent3/permanenttrips/middle":    "reads=[corrupt(page=6,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
	"extent3/permanenttrips/last":      "reads=[corrupt(page=7,q=false,tripped=false)] stats={Reads=3 Seeks=1 LightReads=3 Retries=3 SimTime=46ms} breaker={Trips=1 OpenRegions=1}",
}

// TestPeekBytes: the unmetered read returns exactly what a charged read
// does, charges nothing, draws no injected faults, and fails on the
// first bad page of an extent in ascending order — range first, then a
// quarantine mark, then a corruption mark.
func TestPeekBytes(t *testing.T) {
	d := newTestDisk()
	base := d.AllocPages(4)
	data := make([]byte, 3*gatePageSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := d.WriteBytes(base, data); err != nil {
		t.Fatal(err)
	}
	d.InjectPageFault(base+1, FaultPermanent, 0)
	before := d.Stats()
	for _, length := range []int{0, 1, gatePageSize, 2*gatePageSize + 5, len(data)} {
		got, err := d.PeekBytes(base, length)
		if err != nil {
			t.Fatalf("peek %d bytes: %v", length, err)
		}
		if !bytes.Equal(got, data[:length]) {
			t.Fatalf("peek %d bytes: wrong content", length)
		}
	}
	if after := d.Stats(); after != before {
		t.Fatalf("peeks charged %+v", after.Sub(before))
	}
	d.ClearFaults()
	want, err := d.ReadBytes(base, len(data), ClassLight)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.PeekBytes(base, len(data)); !bytes.Equal(got, want) {
		t.Fatal("peek and charged read disagree")
	}

	before = d.Stats()
	if _, err := d.PeekBytes(base+3, gatePageSize+1); !IsOutOfRange(err) {
		t.Fatalf("peek past the watermark: err = %v, want out of range", err)
	}
	if _, err := d.PeekBytes(-1, 1); !IsOutOfRange(err) {
		t.Fatalf("peek of a negative page: err = %v, want out of range", err)
	}
	d.CorruptPage(base + 1)
	d.Quarantine(base + 2)
	d.CorruptPage(base + 2)
	var ce *CorruptError
	if _, err := d.PeekBytes(base, len(data)); !errors.As(err, &ce) || ce.Page != base+1 || ce.Quarantined {
		t.Fatalf("peek over corrupt page 1: err = %v, want page %d corrupt", err, base+1)
	}
	// Page 2 is both quarantined and corrupt, and the extent runs past
	// the watermark after it.
	if _, err := d.PeekBytes(base+2, 2*gatePageSize+1); !errors.As(err, &ce) || ce.Page != base+2 || !ce.Quarantined {
		t.Fatalf("peek from page 2: err = %v, want page %d quarantined", err, base+2)
	}
	if _, err := d.PeekBytes(base, gatePageSize); err != nil {
		t.Fatalf("peek of the good page before them: %v", err)
	}
	if after := d.Stats(); after != before {
		t.Fatalf("failed peeks charged %+v", after.Sub(before))
	}
}

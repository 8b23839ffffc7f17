//go:build !race

package filestore

import (
	"testing"

	"repro/internal/storage"
)

// TestReadExtentAllocatesNothing: on the file backend ReadExtent really
// transfers the payload and discards it, through a transfer buffer the
// disk recycles, so a steady-state payload fetch allocates nothing.
// (Race builds are excluded: sync.Pool drops items at random under the
// race detector.)
func TestReadExtentAllocatesNothing(t *testing.T) {
	for _, opts := range []Options{{}, {NoMmap: true}} {
		d := storage.NewDiskOn(newStore(t, opts), storage.DefaultCostModel())
		start := d.AllocPages(200)
		if err := d.WritePage(start+150, page(0xAB, 64)); err != nil {
			t.Fatal(err)
		}
		c := d.NewClient()
		if err := c.ReadExtent(start, 200, storage.ClassHeavy); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.ReadExtent(start, 200, storage.ClassHeavy); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("opts %+v: ReadExtent allocates %v times per call, want 0", opts, allocs)
		}
	}
}

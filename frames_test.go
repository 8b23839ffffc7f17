package hdov

import (
	"hash/crc64"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestPoolFramesNeverWritten holds the storage read contract: a pool hit
// hands readers the resident frame itself (ReadBytes of a single-page
// extent), so no read path may write into the slice it is served.
// Every resident frame is checksummed, every public read and an Update
// run, and then every frame held from before — resident or evicted
// since — and every page still resident must hold the same bytes.
func TestPoolFramesNeverWritten(t *testing.T) {
	for _, codec := range []bool{false, true} {
		name := "raw"
		if codec {
			name = "codec"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Codec = codec
			db, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.disk.SetCacheSize(1 << 14)

			center := db.CellOf(centerPoint(db))
			readAll := func() error {
				s := db.NewSession()
				for c := 0; c < db.NumCells(); c++ {
					if _, err := s.QueryCell(c, 0.001); err != nil {
						return err
					}
				}
				r, err := s.QueryCellCoherent(center, 0.001)
				if err != nil {
					return err
				}
				if err := s.Fetch(r); err != nil {
					return err
				}
				for _, it := range r.Items[:min(len(r.Items), 8)] {
					if _, err := db.LoadMesh(it); err != nil {
						return err
					}
				}
				return nil
			}
			// Warm the pool so the checked pass is served from frames.
			if err := readAll(); err != nil {
				t.Fatal(err)
			}
			before := db.disk.ResidentFrames()
			if len(before) == 0 {
				t.Fatal("no resident frames after warm-up")
			}
			sums := make(map[storage.PageID]uint64, len(before))
			for id, f := range before {
				sums[id] = frameSum(f)
			}

			// The checked pass: one reader re-runs the plain reads while
			// the main goroutine runs the rest, so under -race a write
			// into a frame another reader holds is also a reported race.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := readAll(); err != nil {
					t.Error(err)
				}
			}()
			s := db.NewSession()
			for c := 0; c < db.NumCells(); c++ {
				if _, err := s.QueryCellCoherent(c, 0.001); err != nil {
					t.Error(err)
				}
			}
			cellIDs := make([]int, db.NumCells())
			for i := range cellIDs {
				cellIDs[i] = i
			}
			if _, err := s.QueryMany(cellIDs, 0.001); err != nil {
				t.Error(err)
			}
			if _, err := db.Walkthrough(WalkOptions{Session: SessionNormal, Frames: 60, Eta: 0.001, Delta: true, Coherent: true}); err != nil {
				t.Error(err)
			}
			if _, err := db.Update(func(u *Updater) { u.Move(0, 1, 0, 0) }); err != nil {
				t.Error(err)
			}
			wg.Wait()
			if err := readAll(); err != nil {
				t.Fatal(err)
			}

			for id, f := range before {
				if frameSum(f) != sums[id] {
					t.Fatalf("frame of page %d was written after it was served", id)
				}
			}
			still := 0
			for id, f := range db.disk.ResidentFrames() {
				if want, ok := sums[id]; ok {
					still++
					if frameSum(f) != want {
						t.Fatalf("page %d is resident with different bytes", id)
					}
				}
			}
			if still == 0 {
				t.Fatal("no frame from before stayed resident; the check saw nothing")
			}
		})
	}
}

var frameTable = crc64.MakeTable(crc64.ECMA)

func frameSum(b []byte) uint64 { return crc64.Checksum(b, frameTable) }

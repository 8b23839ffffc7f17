package hdov

// Dynamic-scene tests at the public API level: the Update batch
// machinery, epoch pinning under a live writer, and the persistence
// round trip through Save + CommitEpoch + Open.

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func dynConfig() Config {
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 1
	cfg.Scene.BuildingsPerBlock = 3
	cfg.Scene.BlobsPerBlock = 2
	cfg.Scene.NominalBytes = 4 << 20
	cfg.Scene.Seed = 21
	cfg.GridCells = 2
	cfg.DoVRays = 128
	return cfg
}

// dynCanon renders a Result canonically (bit-exact floats, addresses
// included — both sides of every comparison share one disk).
func dynCanon(r *Result) string {
	s := fmt.Sprintf("cell=%d items=%d\n", r.Cell, len(r.Items))
	for _, it := range r.Items {
		s += fmt.Sprintf("obj=%d node=%d lvl=%d dov=%x det=%x poly=%x bytes=%d\n",
			it.ObjectID, it.NodeID, it.Level,
			math.Float64bits(it.DoV), math.Float64bits(it.Detail), math.Float64bits(it.Polygons), it.Bytes)
	}
	return s
}

func dynAnswers(t *testing.T, s *Session) map[int]string {
	t.Helper()
	out := make(map[int]string)
	for c := 0; c < s.tree.Grid.NumCells(); c++ {
		r, err := s.QueryCell(c, 0.001)
		if err != nil {
			t.Fatalf("cell %d: %v", c, err)
		}
		out[c] = dynCanon(r)
	}
	return out
}

func TestDynamicUpdateBasics(t *testing.T) {
	dbs, err := buildSchemes(dynConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every scheme's DB takes the same batches and still answers.
	for _, db := range dbs {
		dynUpdateBasics(t, db)
	}
}

func dynUpdateBasics(t *testing.T, db *DB) {
	t.Helper()
	sch := db.Scheme()
	n0 := db.NumObjects()
	if db.Epoch() != 0 {
		t.Fatalf("fresh build at epoch %d", db.Epoch())
	}

	st, err := db.Update(func(u *Updater) {
		u.Insert(InsertSpec{Seed: 9, X: 30, Y: 30, Radius: 2})
		u.Insert(InsertSpec{Seed: 10, X: 50, Y: 20, Radius: 1.5})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Ops != 2 || len(st.InsertedIDs) != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.InsertedIDs[0] != int64(n0) || st.InsertedIDs[1] != int64(n0)+1 {
		t.Fatalf("inserted IDs %v, want dense from %d", st.InsertedIDs, n0)
	}
	if db.NumObjects() != n0+2 || db.NumAliveObjects() != n0+2 {
		t.Fatalf("object counts %d/%d after insert", db.NumObjects(), db.NumAliveObjects())
	}
	if st.PagesAppended <= 0 {
		t.Fatal("insert appended no pages")
	}

	if _, err := db.Update(func(u *Updater) { u.Delete(st.InsertedIDs[0]) }); err != nil {
		t.Fatal(err)
	}
	if db.NumObjects() != n0+2 || db.NumAliveObjects() != n0+1 {
		t.Fatalf("object counts %d/%d after delete (tombstone must keep IDs dense)",
			db.NumObjects(), db.NumAliveObjects())
	}
	if _, err := db.Update(func(u *Updater) { u.Delete(st.InsertedIDs[0]) }); err == nil {
		t.Fatal("double delete succeeded")
	}
	if _, err := db.Update(func(u *Updater) { u.Move(st.InsertedIDs[1], 5, -3, 0) }); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 3 {
		t.Fatalf("epoch %d after 3 batches", db.Epoch())
	}
	if _, err := db.Update(func(u *Updater) {}); err == nil {
		t.Fatal("empty batch succeeded")
	}

	// The scheme still answers on the updated database.
	r, err := db.NewSession().QueryCell(0, 0.001)
	if err != nil {
		t.Fatalf("%v: %v", sch, err)
	}
	for _, it := range r.Items {
		if it.ObjectID == st.InsertedIDs[0] {
			t.Fatalf("%v: deleted object %d still answered", sch, it.ObjectID)
		}
	}
}

// TestUpdatePagesAppendedCountsBatch: PagesAppended is the disk's page
// delta across the whole batch, the V-page re-lay included.
func TestUpdatePagesAppendedCountsBatch(t *testing.T) {
	db, err := Build(dynConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := db.disk.NumPages()
	st, err := db.Update(func(u *Updater) { u.Move(0, 2, 1, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if delta := db.disk.NumPages() - before; st.PagesAppended != delta || delta <= 0 {
		t.Fatalf("PagesAppended = %d, disk grew by %d pages", st.PagesAppended, delta)
	}
}

// TestDynamicSnapshotIsolation pins a session, updates the database, and
// asserts the pinned session's answers never change while new sessions
// see the new epoch.
func TestDynamicSnapshotIsolation(t *testing.T) {
	db, err := Build(dynConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinned := db.NewSession()
	before := dynAnswers(t, pinned)

	// (30, 30) sits on a street corner with a clear sightline from at
	// least one cell's sample viewpoint, so the insert is visible at eta 0.
	st, err := db.Update(func(u *Updater) {
		u.Insert(InsertSpec{Seed: 5, X: 30, Y: 30, Radius: 3})
	})
	if err != nil {
		t.Fatal(err)
	}

	after := dynAnswers(t, pinned)
	for c, v := range before {
		if after[c] != v {
			t.Fatalf("pinned session's answer changed at cell %d:\n%s\nvs\n%s", c, v, after[c])
		}
	}
	// A fresh session must see the inserted object somewhere.
	fresh := db.NewSession()
	seen := false
	for c := 0; c < db.NumCells(); c++ {
		r, err := fresh.QueryCell(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range r.Items {
			if it.ObjectID == st.InsertedIDs[0] {
				seen = true
			}
		}
	}
	if !seen {
		t.Fatalf("inserted object %d invisible to fresh sessions at eta 0", st.InsertedIDs[0])
	}
}

// TestDynamicWriterReaderStress: one writer applying update batches while
// 8 readers continuously run coherent queries through their own sessions.
// Run under -race in CI, this is the snapshot-isolation gate: readers
// must never observe an error or a torn answer, and a session created
// before all writes must answer byte-identically afterwards.
func TestDynamicWriterReaderStress(t *testing.T) {
	db, err := Build(dynConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinned := db.NewSession()
	ref := dynAnswers(t, pinned)

	const readers = 8
	const batches = 5
	var wrote atomic.Int64
	done := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		var live []int64
		for i := 0; i < batches; i++ {
			st, err := db.Update(func(u *Updater) {
				u.Insert(InsertSpec{Seed: int64(100 + i), X: 20 + float64(i)*7, Y: 25 + float64(i)*5, Radius: 1.5})
				if len(live) > 1 {
					u.Move(live[0], 3, 2, 0)
					u.Delete(live[1])
					live = live[2:]
				}
			})
			if err != nil {
				errs <- fmt.Errorf("writer batch %d: %w", i, err)
				return
			}
			live = append(live, st.InsertedIDs...)
			wrote.Add(1)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := db.NewSession()
				n := s.tree.Grid.NumCells()
				for c := 0; c < n; c++ {
					res, err := s.QueryCellCoherent(db.CellOf(db.CellViewpoint(c)), 0.001)
					if err != nil {
						errs <- fmt.Errorf("reader %d cell %d: %w", r, c, err)
						return
					}
					// The answer must be internally consistent with the
					// session's pinned epoch: no item may reference an
					// object the pinned scene does not have.
					for _, it := range res.Items {
						if it.ObjectID >= int64(len(s.tree.Scene.Objects)) {
							errs <- fmt.Errorf("reader %d cell %d: item references object %d beyond pinned scene (%d objects)",
								r, c, it.ObjectID, len(s.tree.Scene.Objects))
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if wrote.Load() != batches {
		t.Fatalf("writer completed %d/%d batches", wrote.Load(), batches)
	}
	if db.Epoch() != batches {
		t.Fatalf("epoch %d after %d batches", db.Epoch(), batches)
	}

	// The pre-write session still answers from epoch 0, byte for byte.
	again := dynAnswers(t, pinned)
	for c, v := range ref {
		if again[c] != v {
			t.Fatalf("pinned session's answer changed at cell %d after %d epochs:\n%s\nvs\n%s",
				c, batches, v, again[c])
		}
	}
}

// TestDynamicPersistRoundTrip: Save, evolve, CommitEpoch, reopen — the
// reopened database answers byte-identically to the live one, carries the
// op log, and remains updatable.
func TestDynamicPersistRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Build(dynConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}

	st, err := db.Update(func(u *Updater) {
		u.Insert(InsertSpec{Seed: 31, X: 33, Y: 44, Radius: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(func(u *Updater) {
		u.Move(st.InsertedIDs[0], -4, 6, 0)
	}); err != nil {
		t.Fatal(err)
	}
	epoch, err := db.CommitEpoch(dir)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first commit produced epoch %d", epoch)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != 1 || re.NumObjects() != db.NumObjects() || re.NumAliveObjects() != db.NumAliveObjects() {
		t.Fatalf("reopened state: epoch %d, objects %d/%d", re.Epoch(), re.NumObjects(), re.NumAliveObjects())
	}
	live := dynAnswers(t, db.NewSession())
	back := dynAnswers(t, re.NewSession())
	for c, v := range live {
		if back[c] != v {
			t.Fatalf("reopened answers diverge at cell %d:\n%s\nvs\n%s", c, v, back[c])
		}
	}

	// The reopened database updates and commits again (second delta).
	if _, err := re.Update(func(u *Updater) {
		u.Insert(InsertSpec{Seed: 32, X: 55, Y: 15, Radius: 1})
	}); err != nil {
		t.Fatal(err)
	}
	if epoch, err = re.CommitEpoch(dir); err != nil || epoch != 2 {
		t.Fatalf("second commit: epoch %d, err %v", epoch, err)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := dynAnswers(t, re.NewSession()), dynAnswers(t, re2.NewSession())
	for c, v := range a {
		if b[c] != v {
			t.Fatalf("after second commit, reopened answers diverge at cell %d", c)
		}
	}

	// A Save into the same directory compacts: the epoch runs are
	// superseded and the database still opens to the same answers.
	if err := re2.Save(dir); err != nil {
		t.Fatal(err)
	}
	re3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c3 := dynAnswers(t, re3.NewSession())
	for c, v := range b {
		if c3[c] != v {
			t.Fatalf("after compacting save, answers diverge at cell %d", c)
		}
	}
}

// TestDBReadersRaceUpdate: reads — fresh sessions' QueryCell and
// Fetch, LoadMesh, and Walkthrough — run beside a writer publishing
// epochs. Each must derive its session from the current tree and scene
// under the DB's lock, so under -race this fails on any unsynchronized
// read of the fields Update swaps. The race fires only when a read lands
// inside the swap window, so CI runs it with -count=20.
func TestDBReadersRaceUpdate(t *testing.T) {
	db, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const batches = 6
	done := make(chan struct{})
	errs := make(chan error, 2) // one per reader
	var wg sync.WaitGroup

	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			s := db.NewSession()
			r, err := s.QueryCell(i%db.NumCells(), 0.001)
			if err == nil {
				err = s.Fetch(r)
			}
			if err == nil && len(r.Items) > 0 {
				_, err = db.LoadMesh(r.Items[i%len(r.Items)])
			}
			if err != nil {
				errs <- fmt.Errorf("query reader, round %d: %w", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			opts := WalkOptions{Frames: 20, Eta: 0.001, Delta: true, Coherent: i%2 == 1, Seed: int64(i)}
			if _, err := db.Walkthrough(opts); err != nil {
				errs <- fmt.Errorf("walk reader, round %d: %w", i, err)
				return
			}
		}
	}()

	for i := 0; i < batches; i++ {
		if _, err := db.Update(func(u *Updater) { u.Move(0, 1, 1, 0) }); err != nil {
			t.Errorf("update %d: %v", i, err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if db.Epoch() != batches {
		t.Fatalf("epoch %d after %d updates", db.Epoch(), batches)
	}
}

// TestDBQueryRaceNewSession: one goroutine's session queries and
// non-coherent walks move their sessions' cell cursors while another
// goroutine derives fresh sessions and coherent walks from the same
// store. A session view must copy only the immutable layout, and no walk
// may play on the store shared with the DB's template tree, so under
// -race this fails on any view that reads a cursor. The race fires only
// when a view lands inside a flip, so CI runs it with -count=20.
func TestDBQueryRaceNewSession(t *testing.T) {
	db, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for g, coherent := range []bool{false, true} {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := db.NewSession().QueryCell((i+g)%db.NumCells(), 0.001); err != nil {
					errs <- fmt.Errorf("session query %d, round %d: %w", g, i, err)
					return
				}
				if i%8 == g {
					opts := WalkOptions{Frames: 10, Eta: 0.001, Delta: true, Coherent: coherent, Seed: int64(i)}
					if _, err := db.Walkthrough(opts); err != nil {
						errs <- fmt.Errorf("walk %d, round %d: %w", g, i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

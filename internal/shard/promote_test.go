package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cells"
	"repro/internal/vstore"
)

// promoteRouter builds a four-shard router whose hottest shard is the
// one owning the last cell, ready for PromoteHot(1). It also returns the
// cell count.
func promoteRouter(t *testing.T) (*Router, int) {
	t.Helper()
	env := fixture(t)
	r, err := NewRouter(env.sc, env.disk, env.man[false][vstore.SchemeIndexedVertical], Config{
		Shards: 4, CachePagesPerShard: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := env.tree.Grid.NumCells() - 1
	for i := 0; i < 8; i++ {
		r.Heat().Hit(last)
	}
	return r, last + 1
}

// TestPromoteHotOpensOutsideLock holds a promotion inside its replica
// open and checks that a setter and a new routed session's first
// scatter-gather finish meanwhile: opening a replica rereads every node
// record, and none of that may happen under the router's mutex. The
// replica the promotion then installs carries the setting changed
// during its open.
func TestPromoteHotOpensOutsideLock(t *testing.T) {
	r, numCells := promoteRouter(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	r.openHook = func(idx int, cfg Config) (*Store, error) {
		close(entered)
		<-release
		return r.open(idx, cfg)
	}
	type outcome struct {
		promoted []int
		err      error
	}
	promoted := make(chan outcome, 1)
	go func() {
		p, err := r.PromoteHot(1)
		promoted <- outcome{p, err}
	}()
	<-entered

	finished := make(chan error, 1)
	go func() {
		r.SetFaultTolerant(true)
		_, err := r.Session().QueryMany([]cells.CellID{0, cells.CellID(numCells - 1)}, diffEta)
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("SetFaultTolerant or a session's first QueryMany waited for a replica open")
	}
	close(release)
	out := <-promoted
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.promoted) != 1 {
		t.Fatalf("promoted %v, want one shard", out.promoted)
	}
	st := r.Table().Replicas[out.promoted[0]][0]
	if !st.Replica || !st.Tree.FaultTolerant {
		t.Fatalf("installed replica: Replica %v FaultTolerant %v, want both true", st.Replica, st.Tree.FaultTolerant)
	}
}

// TestPromoteHotRacingSetFaultTolerant: a promotion racing a toggler
// ends with every store, the new replica included, carrying the final
// setting. The open itself flips the setting once, so the snapshot the
// replica opened under is always stale by install time.
func TestPromoteHotRacingSetFaultTolerant(t *testing.T) {
	r, _ := promoteRouter(t)
	r.openHook = func(idx int, cfg Config) (*Store, error) {
		r.SetFaultTolerant(!cfg.FaultTolerant)
		return r.open(idx, cfg)
	}
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			r.SetFaultTolerant(i%2 == 0)
		}
	}()
	promoted, err := r.PromoteHot(1)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(promoted) != 1 {
		t.Fatalf("promoted %v, want one shard", promoted)
	}
	r.mu.Lock()
	final := r.cfg.FaultTolerant
	r.mu.Unlock()
	r.forEachStore(func(st *Store) {
		if st.Tree.FaultTolerant != final {
			t.Errorf("shard %d (replica %v): FaultTolerant %v, want the final %v",
				st.Shard, st.Replica, st.Tree.FaultTolerant, final)
		}
	})
}

package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cells"
	"repro/internal/vstore"
)

// TestConcurrentQueriesDuringPromotion hammers the router with querying
// clients while replicas are promoted, dropped, and the heat EMA decays
// concurrently. Every answer must still match the baseline — a session
// pins its table, so a promotion mid-flight can never hand it a
// half-built store — and the run must be clean under -race.
func TestConcurrentQueriesDuringPromotion(t *testing.T) {
	env := fixture(t)
	want := golden(t, env, false, vstore.SchemeIndexedVertical)
	r, err := NewRouter(env.sc, env.disk, env.man[false][vstore.SchemeIndexedVertical], Config{
		Shards: 4, CachePagesPerShard: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := env.tree.Grid.NumCells()
	const clients = 8
	const rounds = 30

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, clients+1)

	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				sess := r.Session()
				for c := 0; c < n; c++ {
					var fp string
					if (round+w)%2 == 0 {
						res, err := sess.QueryCell(cells.CellID(c), diffEta)
						if err != nil {
							errc <- fmt.Errorf("client %d cell %d: %w", w, c, err)
							return
						}
						fp = fingerprint(res)
					} else {
						batch, err := sess.QueryMany([]cells.CellID{cells.CellID(c)}, diffEta)
						if err != nil {
							errc <- fmt.Errorf("client %d scatter cell %d: %w", w, c, err)
							return
						}
						fp = fingerprint(batch[0])
					}
					if fp != want[c] {
						errc <- fmt.Errorf("client %d cell %d diverged during promotion churn", w, c)
						return
					}
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < rounds; i++ {
			if _, err := r.PromoteHot(2); err != nil {
				errc <- fmt.Errorf("promotion round %d: %w", i, err)
				return
			}
			r.Heat().Decay()
			if i%5 == 4 {
				r.DropReplicas()
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

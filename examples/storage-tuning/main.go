// Storage-tuning: compare the three V-page storage schemes of the paper's
// §4 over the same dataset — disk footprint (Table 2) and query cost
// (Figure 7) — to pick a layout for a deployment. A database lays out
// one scheme, so the example builds one database per scheme.
package main

import (
	"fmt"
	"log"
	"time"

	hdov "repro"
)

func main() {
	cfg := hdov.DefaultConfig()
	cfg.Scene.Blocks = 4
	cfg.GridCells = 16
	cfg.DoVRays = 2048
	cfg.Scene.NominalBytes = 200 << 20

	schemes := []hdov.Scheme{hdov.SchemeHorizontal, hdov.SchemeVertical, hdov.SchemeIndexedVertical}
	dbs := make([]*hdov.DB, len(schemes))
	sizes := make([]int64, len(schemes))
	for i, scheme := range schemes {
		fmt.Printf("building HDoV database with the %s scheme...\n", scheme)
		cfg.Scheme = scheme
		db, err := hdov.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		dbs[i] = db
		// Only the field of the DB's own scheme is set.
		sz := db.StorageSizes()
		sizes[i] = sz.Horizontal + sz.Vertical + sz.IndexedVertical
	}

	fmt.Printf("\nstorage footprint (Table 2):\n")
	for i, scheme := range schemes {
		fmt.Printf("  %-18s %8.2f MB\n", scheme, float64(sizes[i])/(1<<20))
	}
	fmt.Printf("  horizontal is %.1fx the indexed-vertical footprint\n",
		float64(sizes[0])/float64(sizes[2]))

	// Query-cost comparison: sweep every cell once per scheme at a few
	// thresholds and accumulate simulated search time.
	fmt.Printf("\nquery cost per scheme (avg over %d cells):\n", dbs[0].NumCells())
	fmt.Printf("  %-18s %12s %12s %12s\n", "scheme", "eta=0", "eta=0.001", "eta=0.008")
	for i, db := range dbs {
		fmt.Printf("  %-18s", schemes[i])
		s := db.NewSession()
		for _, eta := range []float64{0, 0.001, 0.008} {
			var total time.Duration
			for c := 0; c < db.NumCells(); c++ {
				res, err := s.QueryCell(c, eta)
				if err != nil {
					log.Fatal(err)
				}
				if err := s.Fetch(res); err != nil {
					log.Fatal(err)
				}
				total += res.SimTime
			}
			fmt.Printf(" %9.2f ms", float64(total.Microseconds())/1000/float64(db.NumCells()))
		}
		fmt.Println()
	}
	fmt.Println("\ntakeaway: indexed-vertical matches vertical's speed at the")
	fmt.Println("smallest footprint; horizontal pays a seek per V-page access.")
}

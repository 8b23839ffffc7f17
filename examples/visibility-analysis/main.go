// Visibility-analysis: sweep the DoV threshold eta at one viewpoint and
// watch the fidelity/performance trade-off the HDoV-tree is built around —
// the knob of §3.3 ("eta controls the visual quality and performance while
// traversing the tree").
package main

import (
	"fmt"
	"log"

	hdov "repro"
)

func main() {
	cfg := hdov.DefaultConfig()
	cfg.Scene.Blocks = 4
	cfg.GridCells = 12
	cfg.DoVRays = 4096 // resolve small thresholds
	cfg.Scene.NominalBytes = 200 << 20

	fmt.Println("building HDoV database...")
	db, err := hdov.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Use the cell's own DoV sample point so ground-truth fidelity is
	// measured exactly where the visibility field was precomputed.
	eye := db.CellViewpoint(db.CellOf(db.DefaultViewpoint()))
	fmt.Printf("viewpoint %v, cell %d\n\n", eye, db.CellOf(eye))

	fmt.Printf("%-10s %6s %9s %10s %9s %9s %9s %9s %8s\n",
		"eta", "items", "internal", "polygons", "light IO", "total IO", "time ms", "coverage", "detail")
	etas := []float64{0, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.016}
	s := db.NewSession()
	for _, eta := range etas {
		res, err := s.QueryCell(db.CellOf(eye), eta)
		if err != nil {
			log.Fatal(err)
		}
		light := res.LightIO
		if err := s.Fetch(res); err != nil {
			log.Fatal(err)
		}
		f := db.Fidelity(eye, res)
		internal := 0
		for _, it := range res.Items {
			if it.Internal() {
				internal++
			}
		}
		fmt.Printf("%-10g %6d %9d %10.0f %9d %9d %9.2f %9.3f %8.3f\n",
			eta, len(res.Items), internal, res.Polygons,
			light, res.LightIO+res.HeavyIO,
			float64(res.SimTime.Microseconds())/1000,
			f.Coverage, f.DetailFidelity)
	}

	fmt.Println("\nreading the table:")
	fmt.Println("  - coverage stays at 1.000: unlike spatial methods, no visible object")
	fmt.Println("    is ever lost — distant ones collapse into internal LoDs instead")
	fmt.Println("  - I/O and time fall as eta grows; detail fidelity degrades gracefully")
	fmt.Println("  - eta=0 degenerates to the (cell, list-of-objects) method")
}

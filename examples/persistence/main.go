// Persistence: build a database once, save it to disk, reopen it and keep
// querying — the deployment flow the paper's heavy precomputation implies
// (its 1.6 GB dataset took ~1.02 s of DoV computation *per cell* across
// 4000+ cells; nobody rebuilds that per session).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	hdov "repro"
)

func main() {
	dir := filepath.Join(os.TempDir(), "hdov-example-db")
	defer os.RemoveAll(dir)

	cfg := hdov.DefaultConfig()
	cfg.Scene.Blocks = 3
	cfg.GridCells = 8
	cfg.DoVRays = 1024
	cfg.Scene.NominalBytes = 64 << 20

	fmt.Println("building database (the expensive precomputation)...")
	start := time.Now()
	db, err := hdov.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)

	if err := db.Save(dir); err != nil {
		log.Fatal(err)
	}
	var diskBytes int64
	for _, name := range []string{"manifest.json", "disk.img"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %-14s %8.2f MB\n", name, float64(st.Size())/(1<<20))
		diskBytes += st.Size()
	}
	fmt.Printf("  build %v, on-disk footprint %.2f MB\n\n", buildTime.Round(time.Millisecond), float64(diskBytes)/(1<<20))

	fmt.Println("reopening (checksum-verified, structure revalidated)...")
	start = time.Now()
	db2, err := hdov.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  open took %v (build was %v; the gap widens with DoV rays and cells)\n\n",
		time.Since(start).Round(time.Millisecond), buildTime.Round(time.Millisecond))

	// Same answers.
	eye := db.DefaultViewpoint()
	a, err := db.NewSession().QueryCell(db.CellOf(eye), 0.001)
	if err != nil {
		log.Fatal(err)
	}
	b, err := db2.NewSession().QueryCell(db2.CellOf(eye), 0.001)
	if err != nil {
		log.Fatal(err)
	}
	same := len(a.Items) == len(b.Items)
	for i := range a.Items {
		if !same || a.Items[i] != b.Items[i] {
			same = false
			break
		}
	}
	fmt.Printf("query at %v: original %d items, reopened %d items, identical: %v\n",
		eye, len(a.Items), len(b.Items), same)
	if !same {
		log.Fatal("reopened database diverged")
	}

	// The reopened database runs full walkthroughs.
	ws, err := db2.Walkthrough(hdov.WalkOptions{
		Session: hdov.SessionNormal, Frames: 300, Eta: 0.001, Delta: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("walkthrough on reopened DB: %.2f ms/frame avg over %d frames, %.1f MB peak\n",
		ws.AvgFrameMS, ws.Frames, float64(ws.PeakMemoryBytes)/(1<<20))
}

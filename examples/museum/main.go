// Museum: the indoor, extreme-occlusion regime. From inside a gallery
// room only that room's exhibits and thin doorway slices of neighbors are
// visible, so the HDoV-tree prunes almost the whole building, while
// REVIEW's spatial boxes drag in every hidden room they overlap — the
// "wasted I/O on hidden objects" problem the paper's introduction opens
// with, at its sharpest.
package main

import (
	"fmt"
	"log"

	hdov "repro"
)

func main() {
	cfg := hdov.DefaultConfig()
	cfg.Scene.Museum = true
	cfg.Scene.Blocks = 4 // 4x4 rooms
	cfg.GridCells = 12
	cfg.DoVRays = 2048
	cfg.Scene.NominalBytes = 100 << 20

	fmt.Println("building museum database (4x4 rooms, doorway-connected)...")
	db, err := hdov.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d objects (walls + exhibits), %d nodes, %d cells\n\n",
		db.NumObjects(), db.NumNodes(), db.NumCells())

	// Stand in a middle room.
	eye := db.DefaultViewpoint()
	res, err := db.NewSession().QueryCell(db.CellOf(eye), 0.001)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("from a middle room (%v):\n", eye)
	fmt.Printf("  HDoV query answers %d of %d objects — occlusion pruned %0.f%% of the building\n",
		len(res.Items), db.NumObjects(),
		100*(1-float64(len(res.Items))/float64(db.NumObjects())))
	fmt.Printf("  (%d branches cut outright for DoV=0, %d answered by internal LoDs)\n\n",
		db.NumObjects()-len(res.Items), countInternal(res.Items))

	// Walkthrough comparison: the gap between visibility and spatial
	// methods is widest indoors.
	vis, err := db.Walkthrough(hdov.WalkOptions{
		Session: hdov.SessionNormal, Frames: 600, Eta: 0.001, Delta: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	rev, err := db.Walkthrough(hdov.WalkOptions{
		Session: hdov.SessionNormal, Frames: 600, UseREVIEW: true, Delta: true, ReviewBoxDepth: 60,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("walkthrough through the galleries (600 frames):\n")
	fmt.Printf("  %-22s %8.2f ms/frame, %8.1f I/O per query, %6.1f MB peak\n",
		vis.System, vis.AvgFrameMS, vis.AvgQueryIO, float64(vis.PeakMemoryBytes)/(1<<20))
	fmt.Printf("  %-22s %8.2f ms/frame, %8.1f I/O per query, %6.1f MB peak\n",
		rev.System, rev.AvgFrameMS, rev.AvgQueryIO, float64(rev.PeakMemoryBytes)/(1<<20))
	fmt.Printf("\nREVIEW retrieves the exhibits of rooms it cannot see into;\n")
	fmt.Printf("the HDoV-tree's DoV=0 pruning never touches them.\n")
}

func countInternal(items []hdov.Item) int {
	n := 0
	for _, it := range items {
		if it.Internal() {
			n++
		}
	}
	return n
}

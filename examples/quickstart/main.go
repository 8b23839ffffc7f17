// Quickstart: build a small city database, run one visibility query, fetch
// its payloads and check fidelity — the minimal end-to-end use of the
// public API.
package main

import (
	"fmt"
	"log"

	hdov "repro"
)

func main() {
	cfg := hdov.DefaultConfig()
	cfg.Scene.Blocks = 3
	cfg.GridCells = 8
	cfg.DoVRays = 1024
	cfg.Scene.NominalBytes = 64 << 20

	fmt.Println("building HDoV database (city, LoDs, R-tree, per-cell DoV)...")
	db, err := hdov.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d objects, %d tree nodes, %d viewing cells, %d MB nominal\n",
		db.NumObjects(), db.NumNodes(), db.NumCells(), db.NominalBytes()>>20)

	// Stand at a street intersection near the city center.
	eye := db.DefaultViewpoint()

	s := db.NewSession()
	res, err := s.QueryCell(db.CellOf(eye), 0.001)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvisibility query at %v (eta=0.001):\n", eye)
	fmt.Printf("  %d items (%d internal LoDs), %.0f polygons, %d KB payload\n",
		len(res.Items), countInternal(res.Items), res.Polygons, res.Bytes>>10)
	fmt.Printf("  traversal: %d nodes visited, %d branches answered early\n",
		res.NodesVisited, res.EarlyStops)
	fmt.Printf("  light I/O: %d pages in %v simulated disk time\n", res.LightIO, res.SimTime)

	// Show the five most visible items.
	fmt.Println("\nmost visible items:")
	top := topByDoV(res.Items, 5)
	for _, it := range top {
		kind := fmt.Sprintf("object %d", it.ObjectID)
		if it.Internal() {
			kind = fmt.Sprintf("internal LoD of node %d", it.NodeID)
		}
		fmt.Printf("  DoV %.4f  detail %.2f  level %d  %-26s %6.0f polys\n",
			it.DoV, it.Detail, it.Level, kind, it.Polygons)
	}

	// Retrieve the payloads (heavy I/O) and decode one mesh.
	if err := s.Fetch(res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfetched payloads: %d heavy pages, total simulated time %v\n",
		res.HeavyIO, res.SimTime)
	mesh, err := db.LoadMesh(res.Items[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded first item: %d vertices, %d triangles\n",
		len(mesh.Vertices), len(mesh.Triangles))

	// How faithful is the answer to what is actually visible from here?
	f := db.Fidelity(eye, res)
	fmt.Printf("\nfidelity: %d/%d visible objects covered (%.1f%% of DoV mass), detail %.2f\n",
		f.CoveredObjects, f.VisibleObjects, 100*f.Coverage, f.DetailFidelity)
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

func topByDoV(items []hdov.Item, n int) []hdov.Item {
	out := append([]hdov.Item(nil), items...)
	for i := 0; i < len(out) && i < n; i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].DoV > out[i].DoV {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

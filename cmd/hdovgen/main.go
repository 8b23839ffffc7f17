// Command hdovgen generates a synthetic-city HDoV database and reports its
// structure: object/node counts, visibility statistics, per-scheme storage
// footprints. With -obj it also exports the city's finest-LoD geometry as
// a Wavefront OBJ file for inspection in any 3D viewer. With -save it
// persists the database with its indexed-vertical layout, the one Open
// serves.
//
// Usage:
//
//	hdovgen -blocks 4 -grid 12
//	hdovgen -blocks 2 -obj city.obj
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/dbfile"
	"repro/internal/mesh"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/vstore"
)

func main() {
	var (
		blocks  = flag.Int("blocks", 4, "city size in blocks per side")
		grid    = flag.Int("grid", 12, "viewing-cell grid per side")
		dirs    = flag.Int("dirs", 1024, "DoV rays per sample viewpoint")
		nominal = flag.Int64("nominal", 100<<20, "nominal raw dataset bytes")
		seed    = flag.Int64("seed", 1, "generation seed")
		objPath = flag.String("obj", "", "export finest-LoD city geometry as OBJ to this path")
		saveDir = flag.String("save", "", "persist the built database to this directory")
	)
	flag.Parse()

	cp := scene.DefaultCityParams()
	cp.Seed = *seed
	cp.BlocksX, cp.BlocksY = *blocks, *blocks
	cp.NominalBytes = *nominal
	sc := scene.Generate(cp)
	fmt.Printf("city: %d objects, %d triangles (finest LoDs), nominal %d MB\n",
		len(sc.Objects), sc.TotalTriangles(), sc.NominalRawBytes()>>20)

	if *objPath != "" {
		if err := exportOBJ(sc, *objPath); err != nil {
			fmt.Fprintf(os.Stderr, "hdovgen: obj export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *objPath)
	}

	d := storage.NewDisk(0, storage.DefaultCostModel())
	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, *grid, *grid)
	bp.DirsPerViewpoint = *dirs
	tr, vis, err := core.Build(sc, d, bp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdovgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("hdov-tree: %d nodes, height %d, fanout %d/%d, s=%.3f rho=%.3f\n",
		tr.NumNodes(), tr.Root().SubtreeHeight+1,
		tr.Params.FanoutMin, tr.Params.FanoutMax, tr.SMeasured, tr.RhoMeasured)
	fmt.Printf("cells: %d, avg visible nodes per cell %.1f\n",
		tr.Grid.NumCells(), vis.AvgVisibleNodes())

	// The horizontal and vertical layouts are laid out on a fresh
	// simulated disk, for the footprint report only: the saved image
	// holds just the indexed-vertical layout it serves.
	report := storage.NewDisk(d.PageSize(), storage.DefaultCostModel())
	h, err := vstore.Build(report, vis, vstore.SchemeHorizontal, vstore.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdovgen:", err)
		os.Exit(1)
	}
	v, err := vstore.Build(report, vis, vstore.SchemeVertical, vstore.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdovgen:", err)
		os.Exit(1)
	}
	iv, err := vstore.Build(d, vis, vstore.SchemeIndexedVertical, vstore.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdovgen:", err)
		os.Exit(1)
	}
	fmt.Printf("storage: horizontal %.1f MB, vertical %.1f MB, indexed-vertical %.1f MB\n",
		float64(h.SizeBytes())/(1<<20), float64(v.SizeBytes())/(1<<20), float64(iv.SizeBytes())/(1<<20))
	fmt.Printf("disk: %d pages allocated (%.1f MB nominal, %.1f MB resident)\n",
		d.NumPages(), float64(d.SizeBytes())/(1<<20), float64(d.ResidentBytes())/(1<<20))

	if *saveDir != "" {
		tr.SetVStore(iv)
		err = dbfile.Save(*saveDir, &dbfile.Database{Scene: sc, Disk: d, Tree: tr, Layout: iv})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hdovgen:", err)
			os.Exit(1)
		}
		fmt.Printf("saved database to %s\n", *saveDir)
	}
}

// exportOBJ writes the finest LoD of every object as one OBJ group each.
func exportOBJ(sc *scene.Scene, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	groups := make([]mesh.OBJGroup, len(sc.Objects))
	for i, o := range sc.Objects {
		groups[i] = mesh.OBJGroup{
			Name: fmt.Sprintf("%s_%d", o.Kind, o.ID),
			Mesh: o.LoDs.Finest(),
		}
	}
	comment := fmt.Sprintf("HDoV-tree reproduction: synthetic city (%d objects)", len(sc.Objects))
	if err := mesh.ExportOBJ(f, comment, groups); err != nil {
		return err
	}
	return f.Close()
}

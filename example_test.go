package hdov_test

import (
	"fmt"
	"os"

	hdov "repro"
)

// The examples build a tiny database so they run in testing time; real
// deployments use DefaultConfig or larger.
func exampleConfig() hdov.Config {
	cfg := hdov.DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 256
	cfg.Scene.NominalBytes = 8 << 20
	return cfg
}

// Example shows the minimal end-to-end flow: build, query, fetch.
func Example() {
	db, err := hdov.Build(exampleConfig())
	if err != nil {
		panic(err)
	}
	s := db.NewSession()
	res, err := s.QueryCell(db.CellOf(db.DefaultViewpoint()), 0.001)
	if err != nil {
		panic(err)
	}
	fmt.Println("answered:", len(res.Items) > 0)
	fmt.Println("charged index I/O:", res.LightIO > 0)
	if err := s.Fetch(res); err != nil {
		panic(err)
	}
	fmt.Println("charged payload I/O:", res.HeavyIO > 0)
	// Output:
	// answered: true
	// charged index I/O: true
	// charged payload I/O: true
}

// ExampleSession_QueryCell demonstrates the η knob: a larger threshold
// answers with coarser data and less I/O, never losing a visible object.
func ExampleSession_QueryCell() {
	db, err := hdov.Build(exampleConfig())
	if err != nil {
		panic(err)
	}
	eye := db.CellViewpoint(db.CellOf(db.DefaultViewpoint()))
	s := db.NewSession()
	fine, _ := s.QueryCell(db.CellOf(eye), 0)
	coarse, _ := s.QueryCell(db.CellOf(eye), 0.01)
	fmt.Println("coarser answer not bigger:", len(coarse.Items) <= len(fine.Items))
	fmt.Println("coarser answer lighter:", coarse.LightIO <= fine.LightIO)
	f := db.Fidelity(eye, coarse)
	fmt.Println("still covers everything:", f.MissedObjects == 0)
	// Output:
	// coarser answer not bigger: true
	// coarser answer lighter: true
	// still covers everything: true
}

// ExampleDB_Walkthrough plays a recorded session and reads the Table 3
// style metrics.
func ExampleDB_Walkthrough() {
	db, err := hdov.Build(exampleConfig())
	if err != nil {
		panic(err)
	}
	ws, err := db.Walkthrough(hdov.WalkOptions{
		Session: hdov.SessionNormal,
		Frames:  100,
		Eta:     0.001,
		Delta:   true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("frames:", ws.Frames)
	fmt.Println("ran queries:", ws.Queries > 0)
	fmt.Println("positive frame time:", ws.AvgFrameMS > 0)
	// Output:
	// frames: 100
	// ran queries: true
	// positive frame time: true
}

// ExampleDB_Save shows persistence: save, reopen, identical answers.
func ExampleDB_Save() {
	db, err := hdov.Build(exampleConfig())
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "hdov-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if err := db.Save(dir); err != nil {
		panic(err)
	}
	db2, err := hdov.Open(dir)
	if err != nil {
		panic(err)
	}
	a, _ := db.NewSession().QueryCell(db.CellOf(db.DefaultViewpoint()), 0.001)
	b, _ := db2.NewSession().QueryCell(db2.CellOf(db2.DefaultViewpoint()), 0.001)
	fmt.Println("same answer set:", len(a.Items) == len(b.Items))
	// Output:
	// same answer set: true
}

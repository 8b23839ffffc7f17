package core_test

import (
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/filestore"
)

// TestReadBuffersUnderInterleavedQueries: with no buffer pool every node
// record a full query reads lands in its session's per-depth buffer,
// while the retained cut keeps views of the records the coherent queries
// read. One unpooled, file-backed session interleaves the two kinds
// along a walk of neighbouring cells, so the depth buffers are rewritten
// between coherent queries, and every answer must be byte-identical to a
// fresh session's. A cut view over a reused buffer would read another
// node's record.
func TestReadBuffersUnderInterleavedQueries(t *testing.T) {
	fs, err := filestore.Create(filepath.Join(t.TempDir(), "pages.dat"), storage.DefaultPageSize, filestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewDiskOn(fs, storage.DefaultCostModel())
	t.Cleanup(func() { _ = d.Close() })
	env, err := buildDiffEnv(d)
	if err != nil {
		t.Fatal(err)
	}
	walk := snakeWalk(env.tree)
	for _, sch := range env.schemes {
		env.tree.SetVStore(sch.vs)
		for _, eta := range []float64{0, 0.001} {
			s := env.tree.Session()
			for i, cell := range walk {
				ref, err := env.tree.Session().Query(cell, eta)
				if err != nil {
					t.Fatal(err)
				}
				want := canon(ref)
				// Alternate which kind runs first, so the full query's
				// reads fall both between two coherent queries and
				// between a coherent query and its own cell's full one.
				for k := 0; k < 2; k++ {
					coherent := (i+k)%2 == 1
					query := s.Query
					if coherent {
						query = s.QueryCoherent
					}
					got, err := query(cell, eta)
					if err != nil {
						t.Fatal(err)
					}
					if c := canon(got); c != want {
						t.Fatalf("%s η %g step %d cell %d (coherent %v): answer diverged from a fresh session's:\n%s\nvs\n%s",
							sch.name, eta, i, cell, coherent, c, want)
					}
					s.Recycle(got)
				}
			}
			if st := s.CoherenceStats(); st.NodesReused == 0 {
				t.Fatalf("%s η %g: the coherent queries reused no record; the check saw nothing", sch.name, eta)
			}
		}
	}
}

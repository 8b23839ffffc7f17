package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cells"
	"repro/internal/storage"
)

// TestQueryCorruptNodePage verifies that a bad sector under a node record
// surfaces as an error (never a panic or a silent wrong answer).
func TestQueryCorruptNodePage(t *testing.T) {
	tr, _ := withMemStore(t)
	page := tr.NodePage(0)
	tr.Disk.CorruptPage(page)
	defer tr.Disk.HealPage(page)
	if _, err := tr.Query(0, 0.001); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestQueryCorruptChildPage(t *testing.T) {
	tr, _ := withMemStore(t)
	// Corrupt a non-root node: only queries whose traversal reaches it
	// fail; the root read still succeeds.
	child := tr.Root().Entries[0].ChildID
	page := tr.NodePage(child)
	tr.Disk.CorruptPage(page)
	defer tr.Disk.HealPage(page)
	failed := false
	for c := 0; c < tr.Grid.NumCells(); c++ {
		if _, err := tr.Query(0, 0); err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Skip("corrupted subtree never visited (fully hidden)")
	}
}

func TestFetchPayloadsCorruptExtent(t *testing.T) {
	tr, _ := withMemStore(t)
	res, err := tr.Query(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Skip("empty cell")
	}
	page := res.Items[0].Extent.Start
	tr.Disk.CorruptPage(page)
	defer tr.Disk.HealPage(page)
	if _, err := tr.FetchPayloads(res, nil); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := tr.LoadMesh(res.Items[0]); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("LoadMesh err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeNodeRecordNeverPanics feeds structured garbage to the record
// decoder: every outcome must be a clean error or a valid node, never a
// panic or runaway allocation, and the record view the query path reads
// must accept the same bytes and agree with the node on every field.
func TestDecodeNodeRecordNeverPanics(t *testing.T) {
	tr, _ := fixture(t)
	good := tr.Root().EncodeRecord()
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 2000; i++ {
		buf := append([]byte(nil), good...)
		// Random truncation and byte flips.
		if r.Intn(2) == 0 && len(buf) > 1 {
			buf = buf[:r.Intn(len(buf))]
		}
		for j := 0; j < 1+r.Intn(8); j++ {
			if len(buf) == 0 {
				break
			}
			buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
		}
		n, err := DecodeNodeRecord(buf)
		if err == nil && n == nil {
			t.Fatal("nil node with nil error")
		}
		v, verr := ParseNodeRecord(buf)
		if (verr == nil) != (err == nil) {
			t.Fatalf("view error %v, decode error %v", verr, err)
		}
		if err == nil {
			if err := viewMatchesNode(v, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Pure random noise.
	for i := 0; i < 500; i++ {
		buf := make([]byte, r.Intn(512))
		r.Read(buf)
		_, _ = DecodeNodeRecord(buf)
	}
}

func TestMemStoreShortVPage(t *testing.T) {
	// A V-page shorter than the node's entry count is a hard error, not
	// an index panic.
	tr, vis := fixture(t)
	short := &shortVStore{vis: vis}
	saved := tr.vstore
	tr.SetVStore(short)
	defer tr.SetVStore(saved)
	if _, err := tr.Query(0, 0.001); err == nil {
		t.Fatal("short V-page accepted")
	}
}

// shortVStore truncates every V-page to a single entry, simulating a
// layout/decoding mismatch between node records and visibility data.
type shortVStore struct {
	vis *VisData
	cur cells.CellID
}

func (s *shortVStore) Name() string     { return "short" }
func (s *shortVStore) SizeBytes() int64 { return 0 }
func (s *shortVStore) SetCell(c cells.CellID) error {
	s.cur = c
	return nil
}
func (s *shortVStore) NodeVD(id NodeID, dst []VD) ([]VD, bool, error) {
	vd := s.vis.PerCell[s.cur][id]
	if vd == nil {
		return dst, false, nil
	}
	return append(dst, vd[0]), true, nil
}

// Package naive implements the (cell, list-of-objects) baseline of §3/§5.3:
// each viewing cell is associated with the list of its visible objects, and
// a visibility query loads that list. Per the paper's implementation notes,
// "this scheme accesses the V-pages of visible leaf nodes only" and "all
// the models retrieved by the algorithm are from the object LoDs" — there
// are no internal nodes, no internal LoDs, and no early termination, so its
// cost is flat in η and the HDoV-tree degenerates to it at η = 0.
package naive

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// Store is the on-disk (cell, list-of-objects) structure.
type Store struct {
	tree *core.Tree
	disk *storage.Disk
	// segs[cell] locates the cell's run of leaf V-page records.
	segs       []seg
	vpageBytes int
	vpPages    int
	size       int64
	// rbuf is where Query's V-page reads land, each decoded before the
	// next; Query, like its Stats from the global counters, is one
	// caller's at a time.
	rbuf []byte
}

type seg struct {
	start  storage.PageID
	vpages int32 // number of visible-leaf V-pages in the run
}

// recEntryBytes: i64 object ID + f64 DoV per record entry.
const recEntryBytes = 16

// Build lays out the naive store: for each cell, one fixed-size V-page per
// visible leaf node, stored consecutively, holding (objectID, DoV) pairs.
func Build(t *core.Tree, vis *core.VisData, vpageBytes int) (*Store, error) {
	if vpageBytes <= 0 {
		vpageBytes = t.Disk.PageSize()
	}
	s := &Store{
		tree:       t,
		disk:       t.Disk,
		segs:       make([]seg, vis.Grid.NumCells()),
		vpageBytes: vpageBytes,
		vpPages:    t.Disk.PagesFor(int64(vpageBytes)),
	}
	for cell := 0; cell < vis.Grid.NumCells(); cell++ {
		perNode := vis.PerCell[cells.CellID(cell)]
		// Collect visible leaf nodes in ID (DFS) order.
		var pages [][]byte
		for id, vd := range perNode {
			if vd == nil || !t.Nodes[id].Leaf {
				continue
			}
			node := t.Nodes[id]
			buf := make([]byte, 2, vpageBytes)
			n := 0
			for ei, v := range vd {
				if v.DoV <= 0 {
					continue
				}
				var rec [recEntryBytes]byte
				binary.LittleEndian.PutUint64(rec[0:], uint64(node.Entries[ei].ObjectID))
				binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(v.DoV))
				buf = append(buf, rec[:]...)
				n++
			}
			if n == 0 {
				continue
			}
			if len(buf) > vpageBytes {
				return nil, fmt.Errorf("naive: leaf record exceeds V-page size")
			}
			binary.LittleEndian.PutUint16(buf[0:], uint16(n))
			pages = append(pages, buf)
		}
		if len(pages) == 0 {
			s.segs[cell] = seg{start: storage.NilPage}
			continue
		}
		start := t.Disk.AllocPages(s.vpPages * len(pages))
		s.size += int64(s.vpPages*len(pages)) * int64(t.Disk.PageSize())
		for i, buf := range pages {
			if err := t.Disk.WriteBytes(start+storage.PageID(i*s.vpPages), buf); err != nil {
				return nil, err
			}
		}
		s.segs[cell] = seg{start: start, vpages: int32(len(pages))}
	}
	return s, nil
}

// Name identifies the method in experiment output.
func (s *Store) Name() string { return "naive" }

// SizeBytes returns the store's disk footprint.
func (s *Store) SizeBytes() int64 { return s.size }

// Query returns every visible object of the cell at its equation-6 LoD,
// charging one light V-page read per visible leaf node.
func (s *Store) Query(cell cells.CellID) (*core.QueryResult, error) {
	if int(cell) < 0 || int(cell) >= len(s.segs) {
		return nil, fmt.Errorf("naive: cell %d out of range", cell)
	}
	before := s.disk.Stats()
	res := &core.QueryResult{Cell: cell}
	sg := s.segs[cell]
	for i := 0; i < int(sg.vpages); i++ {
		s.rbuf = slices.Grow(s.rbuf[:0], s.vpageBytes)
		buf, err := s.disk.ReadBytes(sg.start+storage.PageID(i*s.vpPages), s.vpageBytes, storage.ClassLight, s.rbuf)
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint16(buf[0:]))
		for j := 0; j < n; j++ {
			off := 2 + j*recEntryBytes
			objID := int64(binary.LittleEndian.Uint64(buf[off:]))
			dov := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
			k := core.LeafDetail(dov)
			obj := s.tree.Scene.Object(objID)
			if obj == nil {
				return nil, fmt.Errorf("naive: unknown object %d in cell %d", objID, cell)
			}
			exts := s.tree.ObjExtents[objID]
			lvl := chooseLevel(k, len(exts))
			res.Items = append(res.Items, core.ResultItem{
				ObjectID: objID,
				NodeID:   core.NilNode,
				DoV:      dov,
				Detail:   k,
				Level:    lvl,
				Polygons: obj.LoDs.PolygonsFor(k),
				Extent:   exts[lvl],
			})
		}
	}
	d := s.disk.Stats().Sub(before)
	res.Stats.LightIO = d.LightReads
	res.Stats.HeavyIO = d.HeavyReads
	res.Stats.SimTime = d.SimTime
	for _, it := range res.Items {
		res.Stats.TotalPolygons += it.Polygons
		res.Stats.TotalBytes += it.Extent.NominalBytes
	}
	return res, nil
}

// chooseLevel mirrors core's continuous-to-discrete LoD mapping.
func chooseLevel(k float64, n int) int {
	if n <= 1 || k >= 1 {
		return 0
	}
	if k <= 0 {
		return n - 1
	}
	idx := int((1 - k) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// FetchPayloads charges heavy I/O for every item, like core.FetchPayloads.
func (s *Store) FetchPayloads(res *core.QueryResult, skip func(core.ResultItem) bool) (int, error) {
	fetched := 0
	for _, it := range res.Items {
		if skip != nil && skip(it) {
			continue
		}
		if err := s.disk.ReadExtent(it.Extent.Start, it.Extent.Pages(s.disk), storage.ClassHeavy); err != nil {
			return fetched, err
		}
		fetched++
	}
	return fetched, nil
}

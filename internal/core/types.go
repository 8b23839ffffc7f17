// Package core implements the HDoV-tree, the paper's primary contribution:
// a hierarchical spatial index whose traversal is driven by per-viewing-cell
// degree-of-visibility (DoV) data and which stores internal LoDs — coarse
// aggregate representations of all objects under a node — so that barely
// visible subtrees can be answered with a single coarse mesh instead of
// many detailed objects (§3 of the paper).
//
// The tree's view-invariant part (topology, MBRs, LoD payload locations)
// lives in node records on the simulated disk; the view-variant part (the
// VD = (DoV, NVO) fields of every entry) lives in V-pages managed by one of
// the three storage schemes of §4 (package vstore). Package core defines
// the VStore interface those schemes implement.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/cells"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/storage"
)

// VD is the view-variant data of one node entry: the degree of visibility
// of everything the entry bounds, and the number of visible objects (NVO)
// beneath it — the two fields of §3.3's VD = (DoV, NVO).
type VD struct {
	DoV float64
	NVO int32
}

// NodeID indexes nodes in depth-first preorder; the root is 0.
type NodeID int32

// NilNode marks "no node".
const NilNode NodeID = -1

// Extent locates a payload on disk. NominalBytes is the paper-scale size
// used for page accounting; RealBytes is the length of the actually
// written prefix (the encoded mesh).
type Extent struct {
	Start        storage.PageID
	NominalBytes int64
	RealBytes    int64
}

// Pages returns the extent's page count on disk d.
func (e Extent) Pages(d *storage.Disk) int { return d.PagesFor(e.NominalBytes) }

// NodeEntry is one (VD, MBR, Ptr) entry of §3.2 — with VD externalized to
// the V-pages, the persistent entry is (MBR, Ptr), where Ptr is either a
// child node or an object. Internal entries additionally carry the child's
// internal-LoD references, so terminating a branch (line 8 of Figure 3,
// "Add E.ptr→LOD_internal") resolves the coarse mesh without fetching the
// child node record.
//
// hdov:frozen-after-publish — entries live inside published node records
// that query sessions traverse lock-free; updates clone the node and its
// entry slice inside a construction window instead of editing in place.
type NodeEntry struct {
	MBR      geom.AABB
	ChildID  NodeID // valid in internal nodes, else NilNode
	ObjectID int64  // valid in leaf nodes, else -1
	// DescCount is the number of leaf-level objects beneath the entry —
	// the m of equation 3 (1 for leaf entries).
	DescCount int32
	// DescPolys is the total finest-LoD polygon count beneath the entry,
	// so m·f of equation 3 is measured rather than modeled.
	DescPolys int64
	// LoDRefs/LoDPolys mirror the child node's InternalExtents and
	// InternalPolys (empty in leaf entries).
	LoDRefs  []Extent
	LoDPolys []int
}

// Node is an HDoV-tree node: R-tree topology plus internal-LoD metadata.
//
// hdov:frozen-after-publish — once a node is reachable from a published
// epoch, concurrent query sessions traverse it with no locks, so every
// field is immutable; the update path clones (copy-on-write) inside a
// construction window and republishes.
type Node struct {
	ID   NodeID
	Leaf bool
	// SubtreeHeight is the number of edges to the leaf level (0 for a
	// leaf) — the h of equation 4, except measured exactly rather than
	// estimated as log_M m.
	SubtreeHeight int
	// LeafDescendants is m of equation 3: the number of leaf-level
	// objects beneath the node.
	LeafDescendants int
	Entries         []NodeEntry
	// InternalLoD is the in-memory chain of coarse aggregate meshes
	// ("levels of internal LoDs", §3.2). Leaf nodes have them too — the
	// traversal of Figure 3 can terminate on a leaf's parent entry.
	InternalLoD *mesh.LoDChain
	// InternalExtents and InternalPolys mirror InternalLoD on disk.
	InternalExtents []Extent
	InternalPolys   []int
	// Page is where the node record lives.
	Page storage.PageID
}

// VStore serves the view-variant V-pages of §4. Implementations are the
// horizontal, vertical and indexed-vertical schemes (package vstore).
type VStore interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// SetCell makes a viewing cell current, charging whatever "flipping"
	// I/O the scheme needs (§4.2–4.3). It is a no-op if the cell is
	// already current.
	SetCell(cell cells.CellID) error
	// NodeVD appends the VD values for the entries of the given node in
	// the current cell to dst, a buffer the caller owns, and returns the
	// extended slice. ok is false if the node is not visible in the cell
	// (every DoV zero). Implementations charge their V-page reads to
	// storage.ClassLight.
	NodeVD(id NodeID, dst []VD) (vd []VD, ok bool, err error)
	// SizeBytes is the scheme's total disk footprint — the Table 2 value.
	SizeBytes() int64
}

// VStoreViewer is implemented by storage schemes that can produce
// per-session views: a view shares the scheme's immutable on-disk layout
// but owns its current-cell cursor and reads through the given client so
// V-page I/O is attributed to the session (see Tree.Session).
type VStoreViewer interface {
	View(io *storage.Client) VStore
}

// VisData is the precomputed visibility field handed from the build
// pipeline to the storage schemes: for every cell, for every node (indexed
// by NodeID), the VD values aligned with the node's entries, or nil when
// the node is invisible in that cell.
type VisData struct {
	NumNodes int
	Grid     *cells.Grid
	PerCell  map[cells.CellID][][]VD
	// CellShift[cell] is the dyadic quantization grid (fraction bits) the
	// cell's DoV values were snapped to at build time, or QuantShiftRaw
	// when the cell keeps raw float64 values (quantization disabled, or
	// the per-cell η-safety fallback fired — see quant.go). Nil on
	// hand-built fields; consumers must treat absence as raw.
	CellShift []uint8
	// RawDoV[cell][objectID] is the unquantized per-object region DoV the
	// cell's VD rows were derived from. The build pipeline retains it so
	// the incremental-update path can re-quantize and re-aggregate after a
	// topology change without re-casting rays for cells no changed object
	// touches. Nil on reopened databases (and hand-built fields); the
	// first update then recomputes every cell once.
	RawDoV [][]float64
}

// VisibleNodes returns N_vnode for a cell: the number of nodes with stored
// visibility data (§4's storage-cost analyses).
func (v *VisData) VisibleNodes(cell cells.CellID) int {
	n := 0
	for _, vd := range v.PerCell[cell] {
		if vd != nil {
			n++
		}
	}
	return n
}

// AvgVisibleNodes returns the mean N_vnode over all cells.
func (v *VisData) AvgVisibleNodes() float64 {
	if len(v.PerCell) == 0 {
		return 0
	}
	total := 0
	//lint:ignore determinism integer summation over all cells is iteration-order independent
	for cell := range v.PerCell {
		total += v.VisibleNodes(cell)
	}
	return float64(total) / float64(len(v.PerCell))
}

// MaxDoV is the paper's MAXDOV constant of equation 6.
const MaxDoV = 0.5

// LeafDetail implements equation 6: k = min(DoV/MAXDOV, 1), the continuous
// detail at which a visible object is retrieved.
func LeafDetail(dov float64) float64 {
	k := dov / MaxDoV
	if k > 1 {
		return 1
	}
	return k
}

// InternalDetail implements equation 5's interpolation coefficient DoV/η
// (clamped to (0, 1]): the detail at which an internal LoD is retrieved
// when the traversal terminates at an internal node.
func InternalDetail(dov, eta float64) float64 {
	if eta <= 0 {
		return 1
	}
	k := dov / eta
	if k > 1 {
		return 1
	}
	return k
}

// TerminateHeuristic implements equation 3's guard, the second condition
// of line 7 in Figure 3: terminating at a node is only worthwhile when its
// internal LoD carries fewer polygons than rendering the visible leaf
// content would — the paper's m·f·s^h < f·n, with both sides measured
// rather than modeled:
//
//   - internalPolys is the actual polygon count of the internal LoD at
//     the equation-5 level that would be retrieved (the paper estimates
//     this as m·f·s^h; the tree stores real counts per entry).
//   - avgObjectPolys is f, the mean finest-LoD polygon count of the
//     entry's descendants (DescPolys / DescCount).
//   - rho adapts the right side to LoD-selected retrieval: the paper
//     assumes visible objects render at f polygons, but under equation 6
//     a barely visible object renders near its coarsest level (≈ rho·f).
//
// Equation 4 — h(1 + log_M s) < log_M n — is this same inequality after
// substituting the m·f·s^h estimate and taking base-M logarithms; package
// tests verify the two agree when the estimate is exact.
func TerminateHeuristic(internalPolys, avgObjectPolys, rho float64, nvo int32) bool {
	if nvo <= 0 || internalPolys <= 0 || avgObjectPolys <= 0 {
		return false
	}
	if rho <= 0 || rho > 1 {
		rho = 1
	}
	return internalPolys < float64(nvo)*rho*avgObjectPolys
}

// EstimatedInternalPolys is the paper's m·f·s^h model of an internal LoD's
// polygon count (equation 3), exposed for the equivalence tests between
// the measured guard and equations 3/4.
func EstimatedInternalPolys(m int, f, s float64, h int) float64 {
	if h < 1 {
		h = 1
	}
	return float64(m) * f * math.Pow(s, float64(h))
}

// ---- node record serialization ----

const (
	nodeMagic      = 0x564f4448 // "HDOV"
	nodeHeaderSize = 4 + 4 + 1 + 1 + 2 + 4 + 4 + 2
	entrySize      = 48 + 4 + 8 + 4 + 8
	lodRefSize     = 8 + 8 + 8 + 4
)

// RecordSize returns the encoded byte size of the node record.
func (n *Node) RecordSize() int {
	size := nodeHeaderSize + len(n.Entries)*entrySize + len(n.InternalExtents)*lodRefSize
	if !n.Leaf {
		size += len(n.Entries) * len(n.InternalExtents) * lodRefSize
	}
	return size
}

// EncodeRecord serializes the view-invariant node record:
//
//	u32 magic | i32 id | u8 leaf | u8 height | u16 nLoD | i32 leafDesc |
//	i32 nEntries | u16 reserved
//	entries: 6×f64 MBR | i32 child | i64 object
//	lod refs: i64 pageStart | i64 nominalBytes | i64 realBytes | i32 npoly
func (n *Node) EncodeRecord() []byte {
	buf := make([]byte, n.RecordSize())
	le := binary.LittleEndian
	le.PutUint32(buf[0:], nodeMagic)
	le.PutUint32(buf[4:], uint32(n.ID))
	if n.Leaf {
		buf[8] = 1
	}
	buf[9] = uint8(n.SubtreeHeight)
	le.PutUint16(buf[10:], uint16(len(n.InternalExtents)))
	le.PutUint32(buf[12:], uint32(n.LeafDescendants))
	le.PutUint32(buf[16:], uint32(len(n.Entries)))
	off := nodeHeaderSize
	putRef := func(ex Extent, npoly int) {
		le.PutUint64(buf[off+0:], uint64(ex.Start))
		le.PutUint64(buf[off+8:], uint64(ex.NominalBytes))
		le.PutUint64(buf[off+16:], uint64(ex.RealBytes))
		le.PutUint32(buf[off+24:], uint32(npoly))
		off += lodRefSize
	}
	nLoD := len(n.InternalExtents)
	for _, e := range n.Entries {
		le.PutUint64(buf[off+0:], math.Float64bits(e.MBR.Min.X))
		le.PutUint64(buf[off+8:], math.Float64bits(e.MBR.Min.Y))
		le.PutUint64(buf[off+16:], math.Float64bits(e.MBR.Min.Z))
		le.PutUint64(buf[off+24:], math.Float64bits(e.MBR.Max.X))
		le.PutUint64(buf[off+32:], math.Float64bits(e.MBR.Max.Y))
		le.PutUint64(buf[off+40:], math.Float64bits(e.MBR.Max.Z))
		le.PutUint32(buf[off+48:], uint32(e.ChildID))
		le.PutUint64(buf[off+52:], uint64(e.ObjectID))
		le.PutUint32(buf[off+60:], uint32(e.DescCount))
		le.PutUint64(buf[off+64:], uint64(e.DescPolys))
		off += entrySize
		if !n.Leaf {
			for i := 0; i < nLoD; i++ {
				if i < len(e.LoDRefs) {
					putRef(e.LoDRefs[i], e.LoDPolys[i])
				} else {
					putRef(Extent{}, 0)
				}
			}
		}
	}
	for i, ex := range n.InternalExtents {
		putRef(ex, n.InternalPolys[i])
	}
	return buf
}

// NodeView is a validated, read-only view over one encoded node record
// (EncodeRecord's format), read in place where storage served it: a
// buffer-pool frame, or the private buffer of a read with no pool. The
// query path reads entries through its accessors instead of decoding the
// record into a Node, so a visit costs no allocation. It is safe because
// storage never writes a slice after serving it (DESIGN.md §10).
//
// hdov:frozen-after-publish — a view may share a pool frame that other
// sessions are reading, and the retained cut keeps views across queries,
// so nothing may store into one once ParseNodeRecord returns it.
type NodeView struct {
	buf    []byte
	nEnt   int32
	nLoD   int32
	stride int32 // bytes per entry, its LoD refs included
	leaf   bool
}

// ParseNodeRecord validates a node record's header, magic and length
// and returns a view over buf, which the view keeps and the caller must
// not write afterwards. It is the record format's one parser: a record
// it rejects fails the query with ErrBadRecord (ReadNodeRecord), and
// DecodeNodeRecord rejects the same inputs because it parses through it.
//
// hdov:hot-path
func ParseNodeRecord(buf []byte) (NodeView, error) {
	le := binary.LittleEndian
	if len(buf) < nodeHeaderSize {
		return NodeView{}, errors.New("core: node record shorter than header")
	}
	if le.Uint32(buf[0:]) != nodeMagic {
		return NodeView{}, errors.New("core: bad node magic")
	}
	leaf := buf[8] == 1
	nLoD := int(le.Uint16(buf[10:]))
	nEnt := int(le.Uint32(buf[16:]))
	nRefs := nLoD
	stride := entrySize
	if !leaf {
		nRefs += nEnt * nLoD
		stride += nLoD * lodRefSize
	}
	want := nodeHeaderSize + nEnt*entrySize + nRefs*lodRefSize
	if len(buf) < want {
		return NodeView{}, fmt.Errorf("core: node record truncated: %d < %d", len(buf), want)
	}
	return NodeView{buf: buf, nEnt: int32(nEnt), nLoD: int32(nLoD), stride: int32(stride), leaf: leaf}, nil
}

// Valid reports whether v holds a parsed record (the zero view does not).
func (v NodeView) Valid() bool { return v.buf != nil }

// ID returns the node ID the record carries.
func (v NodeView) ID() NodeID { return NodeID(binary.LittleEndian.Uint32(v.buf[4:])) }

// Leaf reports whether the record is a leaf node's.
func (v NodeView) Leaf() bool { return v.leaf }

// SubtreeHeight returns the node's edges to the leaf level.
func (v NodeView) SubtreeHeight() int { return int(v.buf[9]) }

// LeafDescendants returns m of equation 3.
func (v NodeView) LeafDescendants() int { return int(binary.LittleEndian.Uint32(v.buf[12:])) }

// NumEntries returns the node's entry count.
func (v NodeView) NumEntries() int { return int(v.nEnt) }

// NumLoD returns the number of internal-LoD levels: of the node itself,
// and of each entry's child in an internal node.
func (v NodeView) NumLoD() int { return int(v.nLoD) }

// entry returns the byte offset of entry i.
func (v NodeView) entry(i int) int { return nodeHeaderSize + i*int(v.stride) }

// EntryMBR returns entry i's bounding box.
//
// hdov:hot-path
func (v NodeView) EntryMBR(i int) geom.AABB {
	b := v.buf[v.entry(i):]
	le := binary.LittleEndian
	return geom.AABB{
		Min: geom.Vec3{
			X: math.Float64frombits(le.Uint64(b[0:])),
			Y: math.Float64frombits(le.Uint64(b[8:])),
			Z: math.Float64frombits(le.Uint64(b[16:])),
		},
		Max: geom.Vec3{
			X: math.Float64frombits(le.Uint64(b[24:])),
			Y: math.Float64frombits(le.Uint64(b[32:])),
			Z: math.Float64frombits(le.Uint64(b[40:])),
		},
	}
}

// EntryChild returns entry i's child node (internal nodes).
//
// hdov:hot-path
func (v NodeView) EntryChild(i int) NodeID {
	return NodeID(int32(binary.LittleEndian.Uint32(v.buf[v.entry(i)+48:])))
}

// EntryObject returns entry i's object ID (leaf nodes).
//
// hdov:hot-path
func (v NodeView) EntryObject(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.buf[v.entry(i)+52:]))
}

// EntryDescCount returns the number of leaf-level objects beneath entry i.
//
// hdov:hot-path
func (v NodeView) EntryDescCount(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.buf[v.entry(i)+60:]))
}

// EntryDescPolys returns the finest-LoD polygon total beneath entry i.
//
// hdov:hot-path
func (v NodeView) EntryDescPolys(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.buf[v.entry(i)+64:]))
}

// EntryLoD returns level l of entry i's child internal LoD — its extent
// and polygon count. Internal nodes only; l < NumLoD.
//
// hdov:hot-path
func (v NodeView) EntryLoD(i, l int) (Extent, int) {
	return v.ref(v.entry(i) + entrySize + l*lodRefSize)
}

// LoD returns level l of the node's own internal LoD; l < NumLoD.
//
// hdov:hot-path
func (v NodeView) LoD(l int) (Extent, int) {
	return v.ref(nodeHeaderSize + int(v.nEnt)*int(v.stride) + l*lodRefSize)
}

// ref decodes the LoD ref at byte offset off.
func (v NodeView) ref(off int) (Extent, int) {
	b := v.buf[off:]
	le := binary.LittleEndian
	return Extent{
		Start:        storage.PageID(le.Uint64(b[0:])),
		NominalBytes: int64(le.Uint64(b[8:])),
		RealBytes:    int64(le.Uint64(b[16:])),
	}, int(le.Uint32(b[24:]))
}

// DecodeNodeRecord parses a node record (ParseNodeRecord) and builds a
// Node from the view; the query path reads views directly, so this runs
// where a tree is rehydrated (OpenTree) and under fuzzing. The returned
// node has no in-memory InternalLoD; callers needing meshes read the
// extents.
//
// A record decodes in at most four allocations at any fan-out: the Node,
// its Entries, and one flat Extent and one flat polygon-count array that
// every entry's LoDRefs/LoDPolys and the node's InternalExtents/
// InternalPolys sub-slice with capped capacity, so an append to one never
// writes into its neighbor.
func DecodeNodeRecord(buf []byte) (*Node, error) {
	v, err := ParseNodeRecord(buf)
	if err != nil {
		return nil, err
	}
	n := &Node{
		ID:              v.ID(),
		Leaf:            v.Leaf(),
		SubtreeHeight:   v.SubtreeHeight(),
		LeafDescendants: v.LeafDescendants(),
	}
	nEnt, nLoD := v.NumEntries(), v.NumLoD()
	nRefs := nLoD
	if !n.Leaf {
		nRefs += nEnt * nLoD
	}
	refs := make([]Extent, nRefs)
	polys := make([]int, nRefs)
	r := 0 // next free slot of refs/polys
	// take returns the capped sub-slices of the k refs just filled.
	take := func(k int) ([]Extent, []int) {
		r += k
		return refs[r-k : r : r], polys[r-k : r : r]
	}
	n.Entries = make([]NodeEntry, nEnt)
	for i := range n.Entries {
		n.Entries[i] = NodeEntry{
			MBR:       v.EntryMBR(i),
			ChildID:   v.EntryChild(i),
			ObjectID:  v.EntryObject(i),
			DescCount: v.EntryDescCount(i),
			DescPolys: v.EntryDescPolys(i),
		}
		if !n.Leaf {
			for l := 0; l < nLoD; l++ {
				refs[r+l], polys[r+l] = v.EntryLoD(i, l)
			}
			n.Entries[i].LoDRefs, n.Entries[i].LoDPolys = take(nLoD)
		}
	}
	for l := 0; l < nLoD; l++ {
		refs[r+l], polys[r+l] = v.LoD(l)
	}
	n.InternalExtents, n.InternalPolys = take(nLoD)
	return n, nil
}

// Degraded-mode traversal: the HDoV-tree's defining property — every
// internal node carries an internal LoD that can stand in for its whole
// subtree — is exactly the structure needed to survive media failure. When
// Tree.FaultTolerant is set, a corrupt child-node page, V-page, or payload
// extent does not abort the query: the traversal substitutes the deepest
// readable ancestor's internal LoD, records a structured Degradation event
// on the result, and quarantines the failed pages so repeated frames stop
// re-seeking them. With no faults firing, fault-tolerant traversal is
// byte-identical to the strict one.
package core

import (
	"errors"
	"fmt"

	"repro/internal/cells"
	"repro/internal/storage"
)

// ErrBadRecord marks a node record that was readable but failed to decode
// — silent media corruption, as opposed to an explicit read error.
var ErrBadRecord = errors.New("core: bad node record")

// FaultCause classifies which read failed during a fault-tolerant
// traversal.
type FaultCause uint8

const (
	// CauseNodeRecord: a node-record page was unreadable or undecodable.
	CauseNodeRecord FaultCause = iota
	// CauseVPage: the node's visibility data (V-page or V-page-index
	// slot) was unreadable.
	CauseVPage
	// CausePayload: a payload extent failed during FetchPayloads.
	CausePayload
	// CauseCellFlip: the storage scheme's cell-flip read failed, so no
	// visibility data was available for the whole frame.
	CauseCellFlip
	// CauseShed: no media failed — the query was answered at reduced
	// fidelity by an active ShedPolicy (η relaxation or depth
	// truncation). Overload shedding reuses the degradation stream so
	// reduced fidelity is always visible and counted (DESIGN.md §14).
	CauseShed
)

func (c FaultCause) String() string {
	switch c {
	case CauseNodeRecord:
		return "node-record"
	case CauseVPage:
		return "v-page"
	case CausePayload:
		return "payload"
	case CauseCellFlip:
		return "cell-flip"
	case CauseShed:
		return "shed"
	default:
		return fmt.Sprintf("FaultCause(%d)", int(c))
	}
}

// Degradation is one structured record of LoD degradation: which subtree's
// data could not be read, why, and which internal LoD stood in for it.
type Degradation struct {
	// Cell is the viewing cell of the degraded query.
	Cell cells.CellID
	// Node is the subtree whose data failed (NilNode for cell-flip faults
	// and for object-payload faults).
	Node NodeID
	// Object is the object whose payload failed (payload faults on object
	// items; -1 otherwise).
	Object int64
	// Cause classifies the failed read.
	Cause FaultCause
	// Page is the first failing page (storage.NilPage when the failure
	// was a decode error on readable pages).
	Page storage.PageID
	// SubstituteNode and SubstituteLevel identify the internal LoD that
	// stood in for the lost branch (NilNode / -1 if nothing readable was
	// found — the branch is simply absent from the frame).
	SubstituteNode  NodeID
	SubstituteLevel int
}

// lodSource is one rung of the ancestor ladder threaded through the
// traversal: a node whose internal-LoD references are already in hand —
// in its parent's entry (entry >= 0) or its own record (entry < 0) of
// the record view rec — so substituting it needs no further access to
// damaged media.
type lodSource struct {
	node  NodeID
	rec   NodeView
	entry int
}

// lod returns level l of the source node's internal LoD.
func (s lodSource) lod(l int) (Extent, int) {
	if s.entry < 0 {
		return s.rec.LoD(l)
	}
	return s.rec.EntryLoD(s.entry, l)
}

// extent returns level l's extent (pickReadableLevel's accessor).
func (s lodSource) extent(l int) Extent {
	ext, _ := s.lod(l)
	return ext
}

// degradable reports whether err is a media fault the fault-tolerant
// traversal may absorb. Structural errors (out-of-range pages, layout
// mismatches) still abort: they indicate bugs, not bad sectors.
func degradable(err error) bool {
	return errors.Is(err, storage.ErrCorrupt) || errors.Is(err, ErrBadRecord)
}

// nodeRecordRange reports whether page falls inside the node-record
// region, distinguishing node faults from V-page faults.
func (t *Tree) nodeRecordRange(page storage.PageID) bool {
	return page >= t.nodePageBase &&
		page < t.nodePageBase+storage.PageID(len(t.Nodes)*t.nodeStride)
}

// quarantineNodeRecord parks every page of a node's record.
func (t *Tree) quarantineNodeRecord(id NodeID) {
	start := t.NodePage(id)
	for i := 0; i < t.nodeStride; i++ {
		t.Disk.Quarantine(start + storage.PageID(i))
	}
}

// absorbFault decides whether a fault-tolerant traversal may absorb the
// error that aborted the descent into child. On yes it quarantines the
// damaged pages and returns the classified cause; on no the error must
// propagate.
func (t *Tree) absorbFault(err error, child NodeID) (FaultCause, storage.PageID, bool) {
	if !t.FaultTolerant || !degradable(err) {
		return 0, storage.NilPage, false
	}
	var ce *storage.CorruptError
	if errors.As(err, &ce) {
		t.Disk.Quarantine(ce.Page)
		if t.nodeRecordRange(ce.Page) {
			t.quarantineNodeRecord(child)
			return CauseNodeRecord, ce.Page, true
		}
		return CauseVPage, ce.Page, true
	}
	// Decode failure on readable pages: quarantine the whole record.
	t.quarantineNodeRecord(child)
	return CauseNodeRecord, storage.NilPage, true
}

// extentReadable reports whether no page of the extent is quarantined.
// It consults only the quarantine set — knowledge recovery code earned by
// observing failures — never the corruption map, which a real system
// cannot see without reading.
func (t *Tree) extentReadable(e Extent) bool {
	n := e.Pages(t.Disk)
	for i := 0; i < n; i++ {
		if t.Disk.IsQuarantined(e.Start + storage.PageID(i)) {
			return false
		}
	}
	return true
}

// pickReadableLevel returns the level closest to want, among the n
// levels whose extents ref returns, that is not quarantined, preferring
// coarser levels (higher indices) — a degraded frame should err toward
// less detail, not more I/O.
func (t *Tree) pickReadableLevel(n int, ref func(int) Extent, want int) (int, bool) {
	if want < 0 {
		want = 0
	}
	if want >= n {
		want = n - 1
	}
	for lvl := want; lvl < n; lvl++ {
		if t.extentReadable(ref(lvl)) {
			return lvl, true
		}
	}
	for lvl := want - 1; lvl >= 0; lvl-- {
		if t.extentReadable(ref(lvl)) {
			return lvl, true
		}
	}
	return -1, false
}

// substitute stands the deepest readable ancestor's internal LoD in for
// the subtree under failed, appending a result item (unless that node's
// LoD already stands in for a sibling failure) and a Degradation event.
func (t *Tree) substitute(res *QueryResult, anc []lodSource, failed NodeID, dov, k float64, cause FaultCause, page storage.PageID) {
	deg := Degradation{
		Cell: res.Cell, Node: failed, Object: -1, Cause: cause, Page: page,
		SubstituteNode: NilNode, SubstituteLevel: -1,
	}
	for s := len(anc) - 1; s >= 0; s-- {
		src := anc[s]
		n := src.rec.NumLoD()
		if n == 0 {
			continue
		}
		lvl, ok := t.pickReadableLevel(n, src.extent, chooseLevel(k, n))
		if !ok {
			continue
		}
		deg.SubstituteNode = src.node
		deg.SubstituteLevel = lvl
		if !res.substituted[src.node] {
			if res.substituted == nil {
				res.substituted = make(map[NodeID]bool)
			}
			res.substituted[src.node] = true
			ext, poly := src.lod(lvl)
			res.Items = append(res.Items, ResultItem{
				ObjectID: -1, NodeID: src.node, DoV: dov, Detail: k,
				Level: lvl, Polygons: float64(poly), Extent: ext,
			})
		}
		break
	}
	res.Degradations = append(res.Degradations, deg)
}

// rootFallback answers a query whose root access (cell flip, root record,
// or root V-page) failed: the root's internal LoD from the in-memory
// mirror — the one piece of the tree a production system keeps replicated
// in its superblock — stands in for the entire scene at the coarsest
// readable level. Returns false if the error is not absorbable.
func (t *Tree) rootFallback(res *QueryResult, err error, cause FaultCause) bool {
	if !t.FaultTolerant || !degradable(err) || len(t.Nodes) == 0 {
		return false
	}
	page := storage.NilPage
	var ce *storage.CorruptError
	if errors.As(err, &ce) {
		t.Disk.Quarantine(ce.Page)
		page = ce.Page
		if cause != CauseCellFlip {
			if t.nodeRecordRange(ce.Page) {
				t.quarantineNodeRecord(0)
				cause = CauseNodeRecord
			} else {
				cause = CauseVPage
			}
		}
	} else if cause == CauseNodeRecord {
		t.quarantineNodeRecord(0)
	}
	// The mirror's record is encoded afresh: a view over it carries the
	// root's own internal-LoD references like any ladder rung. Nothing is
	// known about per-entry DoV, so detail 0 selects the coarsest
	// whole-scene stand-in.
	root, perr := ParseNodeRecord(t.Nodes[0].EncodeRecord())
	if perr != nil {
		return false
	}
	t.substitute(res, []lodSource{{node: 0, rec: root, entry: -1}}, 0, 0, 0, cause, page)
	return true
}

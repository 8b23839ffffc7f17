package core

import (
	"slices"
)

// Session support: one built Tree can serve many concurrent query
// sessions. The view-invariant structure (Nodes, ObjExtents, the disk
// layout) is immutable after Build/OpenTree and shared; what a session
// needs of its own is (a) a storage.Client so its I/O and simulated time
// are attributed to it alone, and (b) a view of the storage scheme,
// because the vertical and indexed-vertical schemes keep a current-cell
// cursor (the flipped segment of §4.2–4.3) that two sessions in
// different cells would fight over.

// Session returns an independent query view of the tree: same structure
// and disk, fresh I/O accounting, own storage-scheme cursor. The base
// tree remains usable; sessions are not themselves re-sessionable trees
// in any deeper sense (Session of a session just works — it is another
// shallow view).
//
// A session's Query/FetchPayloads/LoadMesh may run concurrently with
// other sessions'. A single session is still one logical walker: do not
// share one session between goroutines.
func (t *Tree) Session() *Tree {
	s := *t
	s.IO = t.Disk.NewClient()
	if t.vstore != nil {
		s.vstore = t.vstore.View(s.IO)
	}
	// Frame-coherence state is strictly per-session: a fresh session
	// starts with no retained cut, an empty result free list and empty
	// traversal buffers, never sharing any of them with the tree (or
	// session) it was derived from.
	s.cut = nil
	s.resPool = &resultPool{}
	s.scr = &travScratch{}
	return &s
}

// travScratch is a session's reusable traversal memory, so a query
// allocates nothing per visited node. The recursion descends before a
// parent's entry loop ends, so the node records read by searchNode, the
// V-data and the retained cut's child lists get one grow-only buffer per
// depth; the ancestor ladder is one stack. A query writes them only while
// it runs, so their contents mean nothing between queries.
type travScratch struct {
	rec  [][]byte     // by depth: searchNode's node-record read buffer
	vd   [][]VD       // by depth: the node's V-data (NodeVD's dst)
	keep [][]*cutNode // by depth: children kept by searchCut
	anc  []lodSource  // the ancestor ladder (searchNode)
}

// recBuf returns depth's node-record read buffer, grown to hold length
// bytes.
func (s *travScratch) recBuf(depth, length int) []byte {
	for len(s.rec) <= depth {
		s.rec = append(s.rec, nil)
	}
	s.rec[depth] = slices.Grow(s.rec[depth][:0], length)
	return s.rec[depth]
}

// vdBuf returns depth's V-data buffer, emptied; the caller stores the
// filled buffer back in vd[depth] so its growth is kept.
func (s *travScratch) vdBuf(depth int) []VD {
	for len(s.vd) <= depth {
		s.vd = append(s.vd, nil)
	}
	return s.vd[depth][:0]
}

// keepReset empties depth's child-list buffer, keeping its capacity.
func (s *travScratch) keepReset(depth int) {
	for len(s.keep) <= depth {
		s.keep = append(s.keep, nil)
	}
	s.keep[depth] = s.keep[depth][:0]
}

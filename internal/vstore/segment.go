package vstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// V-page-index segment decoding, shared by the vertical and
// indexed-vertical schemes' cell flips and fuzzed directly (the segments
// are the one variable-length on-disk structure the query path decodes,
// so they are where silent corruption turns into bad pointers).

// flipSlot locates one visible node's V-page in the flipped cell: a raw
// layout's slot index (n == 0), or a codec unit's absolute heap offset
// and exact length.
type flipSlot struct {
	at  int64
	n   int32
	gen uint32 // the cellTable fill that wrote the slot
}

// cellTable is a scheme view's dense table of the flipped cell's V-page
// locations, indexed by NodeID. A flip refills it instead of building a
// new map: every fill bumps gen, and a slot counts only while its stamp
// equals gen, so the previous cell's slots vanish without a clear. The
// table grows once, to the scheme's node count, and is then reused by
// every flip of the view.
type cellTable struct {
	slots []flipSlot
	gen   uint32
}

// reset empties t for a fill over numNodes nodes.
func (t *cellTable) reset(numNodes int) {
	if len(t.slots) != numNodes {
		t.slots = make([]flipSlot, numNodes)
		t.gen = 0
	}
	t.gen++
	if t.gen == 0 {
		// The stamp wrapped: old stamps could match again, so clear.
		clear(t.slots)
		t.gen = 1
	}
}

// put records node id's location; it reports false when this fill has
// already set id. id must be inside the reset range.
//
// hdov:hot-path
func (t *cellTable) put(id int, at int64, n int32) bool {
	s := &t.slots[id]
	if s.gen == t.gen {
		return false
	}
	*s = flipSlot{at: at, n: n, gen: t.gen}
	return true
}

// get returns node id's location; ok is false when the node is not
// visible in the table's cell (or the table was never filled).
//
// hdov:hot-path
func (t *cellTable) get(id core.NodeID) (flipSlot, bool) {
	if int(id) < 0 || int(id) >= len(t.slots) {
		return flipSlot{}, false
	}
	s := t.slots[id]
	return s, s.gen == t.gen
}

// decodePointerSegment parses a vertical-scheme segment (§4.2) into dst:
// numNodes little-endian int64 V-page pointers, nilSlot for invisible
// nodes. Every pointer is validated against the slot-table size so a
// corrupt segment surfaces at flip time instead of as an out-of-range
// read mid-query. On error dst holds a partial fill.
//
// hdov:hot-path
func decodePointerSegment(buf []byte, numNodes int, numSlots int64, dst *cellTable) error {
	if numNodes < 0 || len(buf) < numNodes*pointerBytes {
		return fmt.Errorf("vstore: pointer segment is %d bytes, want %d", len(buf), numNodes*pointerBytes)
	}
	dst.reset(numNodes)
	for i := 0; i < numNodes; i++ {
		p := int64(binary.LittleEndian.Uint64(buf[i*pointerBytes:]))
		if p == nilSlot {
			continue
		}
		if p < 0 || p >= numSlots {
			return fmt.Errorf("vstore: node %d pointer %d out of range (%d slots)", i, p, numSlots)
		}
		dst.put(i, p, 0)
	}
	return nil
}

// decodeIndexSegment parses an indexed-vertical segment (§4.3) into dst:
// count × (u32 node offset, i64 V-page pointer) pairs for the visible
// nodes. Offsets and pointers are range-checked, and duplicate offsets
// rejected, so a corrupt segment cannot alias two nodes onto one V-page
// silently. On error dst holds a partial fill.
//
// hdov:hot-path
func decodeIndexSegment(buf []byte, count, numNodes int, numSlots int64, dst *cellTable) error {
	if count < 0 || len(buf) < count*segEntryBytes {
		return fmt.Errorf("vstore: index segment is %d bytes, want %d", len(buf), count*segEntryBytes)
	}
	dst.reset(numNodes)
	for i := 0; i < count; i++ {
		id := core.NodeID(binary.LittleEndian.Uint32(buf[i*segEntryBytes:]))
		slot := int64(binary.LittleEndian.Uint64(buf[i*segEntryBytes+4:]))
		if int(id) < 0 || int(id) >= numNodes {
			return fmt.Errorf("vstore: segment entry %d: node %d out of range (%d nodes)", i, id, numNodes)
		}
		if slot < 0 || slot >= numSlots {
			return fmt.Errorf("vstore: segment entry %d: pointer %d out of range (%d slots)", i, slot, numSlots)
		}
		if !dst.put(int(id), slot, 0) {
			return fmt.Errorf("vstore: segment entry %d: duplicate node %d", i, id)
		}
	}
	return nil
}

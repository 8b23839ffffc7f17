package vstore

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
)

// FuzzDecodePointerSegment drives the vertical scheme's V-page-index
// segment reader (§4.2) with arbitrary bytes and geometry. A successful
// decode must yield exactly numNodes pointers, each nilSlot or a valid
// slot — anything else is a path for corrupt segments to become
// out-of-range reads mid-query.
func FuzzDecodePointerSegment(f *testing.F) {
	good := make([]byte, 3*pointerBytes)
	var nilPtr int64 = nilSlot
	binary.LittleEndian.PutUint64(good[0:], uint64(nilPtr))
	binary.LittleEndian.PutUint64(good[8:], 0)
	binary.LittleEndian.PutUint64(good[16:], 1)
	f.Add(good, 3, int64(2))
	f.Add([]byte{}, 0, int64(0))
	f.Add([]byte{0xff}, 1, int64(4))
	f.Fuzz(func(t *testing.T, data []byte, numNodes int, numSlots int64) {
		if numNodes > 1<<16 {
			return // bound allocation, not behavior
		}
		var tbl cellTable
		if err := decodePointerSegment(data, numNodes, numSlots, &tbl); err != nil {
			return
		}
		if len(tbl.slots) != numNodes {
			t.Fatalf("decoded %d pointers, want %d", len(tbl.slots), numNodes)
		}
		for id, loc := range tableEntries(&tbl) {
			if loc.at < 0 || loc.at >= numSlots {
				t.Fatalf("node %d pointer %d escaped validation (%d slots)", id, loc.at, numSlots)
			}
		}
	})
}

// FuzzDecodeIndexSegment drives the indexed-vertical scheme's segment
// reader (§4.3): every accepted entry must reference a valid node and
// slot, with no duplicate nodes.
func FuzzDecodeIndexSegment(f *testing.F) {
	good := make([]byte, 2*segEntryBytes)
	binary.LittleEndian.PutUint32(good[0:], 0)
	binary.LittleEndian.PutUint64(good[4:], 0)
	binary.LittleEndian.PutUint32(good[segEntryBytes:], 5)
	binary.LittleEndian.PutUint64(good[segEntryBytes+4:], 1)
	f.Add(good, 2, 8, int64(2))
	f.Add([]byte{}, 0, 0, int64(0))
	f.Add([]byte{0x01, 0x02, 0x03}, 1, 2, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, count, numNodes int, numSlots int64) {
		if count > 1<<16 {
			return // bound allocation, not behavior
		}
		var tbl cellTable
		if err := decodeIndexSegment(data, count, numNodes, numSlots, &tbl); err != nil {
			return
		}
		m := tableEntries(&tbl)
		if len(m) != count {
			t.Fatalf("decoded %d entries, want %d (duplicate slipped through?)", len(m), count)
		}
		for id, loc := range m {
			if int(id) < 0 || int(id) >= numNodes {
				t.Fatalf("node %d escaped validation (%d nodes)", id, numNodes)
			}
			if loc.at < 0 || loc.at >= numSlots {
				t.Fatalf("slot %d escaped validation (%d slots)", loc.at, numSlots)
			}
		}
	})
}

// FuzzDecodeVPage drives the V-page codec with arbitrary bytes.
func FuzzDecodeVPage(f *testing.F) {
	good, _ := encodeVPage([]core.VD{{DoV: 0.5, NVO: 2}, {DoV: 0, NVO: 0}}, 4096)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		vd, err := decodeVPage(nil, data)
		if err == nil && vd != nil {
			// Round-trip whatever decoded cleanly.
			if _, err := encodeVPage(vd, 1<<20); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
		}
	})
}

// tableEntries returns the visible nodes of a filled cellTable.
func tableEntries(tbl *cellTable) map[core.NodeID]flipSlot {
	m := make(map[core.NodeID]flipSlot)
	for id := range tbl.slots {
		if loc, ok := tbl.get(core.NodeID(id)); ok {
			m[core.NodeID(id)] = loc
		}
	}
	return m
}

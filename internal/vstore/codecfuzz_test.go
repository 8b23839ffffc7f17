package vstore

import (
	"testing"

	"repro/internal/core"
)

// corruptions returns adversarial mutations of a valid codec unit: bad
// magic, bad version, overflowing mode byte, truncated tails (torn
// varints and torn CRCs alike), and a CRC-preserving-length bit flip.
func corruptions(good []byte) [][]byte {
	var out [][]byte
	flip := func(pos int, val byte) []byte {
		c := append([]byte(nil), good...)
		c[pos] = val
		return c
	}
	out = append(out, flip(0, 0x00), flip(0, 0xD9), flip(1, 0x7F))
	if len(good) > 2 {
		out = append(out, flip(2, 53), flip(2, 0xFE))
	}
	for cut := 1; cut < len(good); cut += 3 {
		out = append(out, good[:cut])
	}
	if len(good) > 5 {
		c := append([]byte(nil), good...)
		c[len(c)-1] ^= 0x01 // CRC trailer bit flip
		out = append(out, c)
		c2 := append([]byte(nil), good...)
		c2[len(c2)-5] ^= 0x80 // payload bit flip caught by CRC
		out = append(out, c2)
	}
	return out
}

// FuzzDecodeVPageCodec drives the codec V-page unit decoder with
// arbitrary bytes: it must return an error or a faithful V-data slice,
// and never panic. Anything that decodes cleanly must re-encode.
func FuzzDecodeVPageCodec(f *testing.F) {
	quant, _ := EncodeVPageC([]core.VD{{DoV: 0.5, NVO: 2}, {DoV: 0.25, NVO: 0}})
	raw, _ := EncodeVPageC([]core.VD{{DoV: 0.1, NVO: 1}})
	empty, _ := EncodeVPageC(nil)
	for _, seed := range [][]byte{quant, raw, empty} {
		f.Add(seed)
		for _, c := range corruptions(seed) {
			f.Add(c)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{codecMagicVPage})
	f.Fuzz(func(t *testing.T, data []byte) {
		vd, err := DecodeVPageC(nil, data)
		if err != nil {
			if !IsCodecError(err) {
				t.Fatalf("decode error does not wrap errCodec: %v", err)
			}
			return
		}
		if _, err := EncodeVPageC(vd); err != nil && len(vd) < maxCodecEntries {
			t.Fatalf("re-encode of accepted unit failed: %v", err)
		}
	})
}

// FuzzDecodePointerSegmentCodec drives the vertical codec flip-segment
// decoder: an accepted segment must yield exactly numNodes offsets, every
// visible one inside [0, blockBytes) with a length that keeps the prefix
// sum in bounds.
func FuzzDecodePointerSegmentCodec(f *testing.F) {
	lens := []int64{-1, 16, 24, -1, 9}
	good, _ := EncodePointerSegmentC(5, lens)
	f.Add(good, 5, int64(49))
	for _, c := range corruptions(good) {
		f.Add(c, 5, int64(49))
	}
	f.Add([]byte{}, 0, int64(0))
	f.Add(good, 4, int64(49)) // node-count mismatch
	f.Add(good, 5, int64(10)) // block too small
	f.Add([]byte{0xD2}, 1, int64(8))
	f.Fuzz(func(t *testing.T, data []byte, numNodes int, blockBytes int64) {
		if numNodes < 0 || numNodes > 1<<16 {
			return // bound allocation, not behavior
		}
		var tbl cellTable
		if err := DecodePointerSegmentC(data, numNodes, 0, blockBytes, &tbl); err != nil {
			if !IsCodecError(err) {
				t.Fatalf("decode error does not wrap errCodec: %v", err)
			}
			return
		}
		if len(tbl.slots) != numNodes {
			t.Fatalf("decoded %d pointers, want %d", len(tbl.slots), numNodes)
		}
		for id, loc := range tableEntries(&tbl) {
			if loc.at < 0 || loc.at >= blockBytes || int64(loc.n) < codecMinUnitBytes ||
				loc.at+int64(loc.n) > blockBytes {
				t.Fatalf("node %d unit [%d,+%d) escaped validation (block %d)",
					id, loc.at, loc.n, blockBytes)
			}
		}
	})
}

// FuzzDecodeIndexSegmentCodec drives the indexed-vertical codec
// flip-segment decoder: accepted entries must reference in-range nodes
// with units inside [base, base+blockBytes), no duplicates.
func FuzzDecodeIndexSegmentCodec(f *testing.F) {
	good, _ := EncodeIndexSegmentC([]int{1, 4, 9}, []int64{16, 8, 32})
	f.Add(good, 10, int64(0), int64(56))
	for _, c := range corruptions(good) {
		f.Add(c, 10, int64(0), int64(56))
	}
	f.Add([]byte{}, 0, int64(0), int64(0))
	f.Add(good, 5, int64(0), int64(56))  // node 9 out of range
	f.Add(good, 10, int64(0), int64(20)) // block too small
	f.Add([]byte{0xD3, 0x01}, 4, int64(100), int64(64))
	f.Fuzz(func(t *testing.T, data []byte, numNodes int, base, blockBytes int64) {
		if numNodes < 0 || numNodes > 1<<16 {
			return // bound allocation, not behavior
		}
		var tbl cellTable
		if err := DecodeIndexSegmentC(data, numNodes, base, blockBytes, &tbl); err != nil {
			if !IsCodecError(err) {
				t.Fatalf("decode error does not wrap errCodec: %v", err)
			}
			return
		}
		for id, ref := range tableEntries(&tbl) {
			if int(id) < 0 || int(id) >= numNodes {
				t.Fatalf("node %d escaped validation (%d nodes)", id, numNodes)
			}
			if ref.at < base || int64(ref.n) < codecMinUnitBytes ||
				ref.at+int64(ref.n) > base+blockBytes {
				t.Fatalf("node %d unit [%d,+%d) escaped validation (base %d block %d)",
					id, ref.at, ref.n, base, blockBytes)
			}
		}
	})
}

// TestCodecDecodersRejectCorruption pins the corruption taxonomy outside
// the fuzzer: every mutation in corruptions() of every unit type must be
// rejected with a codec error (fuzzing explores further, but this is the
// deterministic floor CI always exercises).
func TestCodecDecodersRejectCorruption(t *testing.T) {
	quant, err := EncodeVPageC([]core.VD{{DoV: 0.5, NVO: 2}, {DoV: 0.125, NVO: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corruptions(quant) {
		if _, err := DecodeVPageC(nil, c); !IsCodecError(err) {
			t.Fatalf("V-page corruption %d accepted: %v", i, err)
		}
	}
	seg, err := EncodePointerSegmentC(6, []int64{16, -1, 8, 8, -1, 40})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corruptions(seg) {
		if err := DecodePointerSegmentC(c, 6, 0, 72, &cellTable{}); !IsCodecError(err) {
			t.Fatalf("pointer-segment corruption %d accepted: %v", i, err)
		}
	}
	idx, err := EncodeIndexSegmentC([]int{0, 3, 5}, []int64{8, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corruptions(idx) {
		if err := DecodeIndexSegmentC(c, 6, 0, 32, &cellTable{}); !IsCodecError(err) {
			t.Fatalf("index-segment corruption %d accepted: %v", i, err)
		}
	}
}

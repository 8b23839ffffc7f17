package vstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/storage"
)

// The codec V-page layer (DESIGN.md §13): an opt-in on-disk layout that
// replaces the fixed 256-byte V-page slots with a packed heap of
// variable-length, self-checking units. Three unit kinds exist, each with
// a common header (magic, version) and a CRC32 trailer:
//
//	V-page unit (0xD1)      — DoV/NVO entries, fixed-point varints
//	pointer segment (0xD2)  — vertical flip index: bitmap + unit lengths
//	index segment (0xD3)    — indexed flip index: id-delta + unit lengths
//
// DoV values are stored as uvarint unit counts on a dyadic 2^-shift grid
// (the per-page mode byte carries the shift). The build already snapped
// the values onto that grid (core/quant.go), so encoding is lossless and
// query results are byte-identical to the raw layout. Pages holding
// values that are not exactly dyadic — hand-built fields, per-cell
// quantization fallbacks — use the raw64 mode (codecModeRaw), which is a
// straight float64 bit image and equally exact.
//
// Units live in a byte-addressed heap and may straddle disk pages; every
// reader knows a unit's exact byte length up front (from the scheme's
// directory or flip segment), so a unit access is one short sequential
// ReadBytes run. Segments store unit *lengths*, not offsets: offsets are
// prefix sums, which delta-compresses the index for free and makes a
// corrupt length surface as an out-of-range error instead of a misread.

const (
	codecMagicVPage      = 0xD1
	codecMagicPointerSeg = 0xD2
	codecMagicIndexSeg   = 0xD3
	codecVersion         = 1
	// codecModeRaw marks a V-page whose payload is raw float64 bit images
	// (values not representable on any dyadic grid ≤ maxCodecShift).
	codecModeRaw = 0xFF
	// maxCodecShift is the widest dyadic grid: beyond 52 fraction bits
	// integer unit counts no longer round-trip through float64.
	maxCodecShift = 52
	crcBytes      = 4
	// codecMinUnitBytes is the smallest well-formed unit: magic, version,
	// mode, count, CRC.
	codecMinUnitBytes = 3 + 1 + crcBytes
	// maxCodecEntries bounds a V-page's entry count (mirrors the raw
	// layout's u16 count), so a corrupt count cannot drive a huge alloc.
	maxCodecEntries = 1 << 16
)

// errCodec wraps every codec validation failure for errors.Is checks.
var errCodec = errors.New("vstore: bad codec unit")

func codecErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCodec, fmt.Sprintf(format, args...))
}

// IsCodecError reports whether err is a codec validation failure (torn or
// malformed unit), as opposed to an I/O error.
func IsCodecError(err error) bool { return errors.Is(err, errCodec) }

// skipQuarantined reports whether err is the fail-fast read of an already
// quarantined page — damage that is recorded and neutralized, which codec
// verification therefore does not re-report.
func skipQuarantined(err error) bool {
	var ce *storage.CorruptError
	return errors.As(err, &ce) && ce.Quarantined
}

// codecShiftFor returns the smallest dyadic grid (fraction bits) that
// represents f exactly, or -1 when no grid ≤ maxCodecShift does.
func codecShiftFor(f float64) int {
	if f == 0 {
		return 0
	}
	if f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return -1
	}
	for s := 0; s <= maxCodecShift; s++ {
		u := math.Ldexp(f, s)
		if u >= 1<<53 {
			return -1
		}
		if u == math.Trunc(u) {
			return s
		}
	}
	return -1
}

// appendCRC seals a unit: appends the CRC32 (IEEE) of everything before it.
func appendCRC(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// checkCRC verifies that buf is exactly payload (pos bytes) + CRC trailer.
func checkCRC(buf []byte, pos int) error {
	if len(buf) != pos+crcBytes {
		return codecErrf("unit is %d bytes, payload ends at %d (truncated or trailing bytes)", len(buf), pos)
	}
	want := binary.LittleEndian.Uint32(buf[pos:])
	if got := crc32.ChecksumIEEE(buf[:pos]); got != want {
		return codecErrf("CRC %08x, stored %08x", got, want)
	}
	return nil
}

// uvarintAt decodes one uvarint from buf[pos:], returning the value and
// the next position.
func uvarintAt(buf []byte, pos int, what string) (uint64, int, error) {
	v, w := binary.Uvarint(buf[pos:])
	if w <= 0 {
		return 0, 0, codecErrf("truncated or overlong %s varint at byte %d", what, pos)
	}
	return v, pos + w, nil
}

// EncodeVPageC encodes VD entries as one codec V-page unit. The page's
// mode is the widest dyadic shift its DoV values need; pages holding
// non-dyadic values (or negative NVOs, on hand-built data) fall back to
// the exact raw64 mode. Both modes decode to bit-identical float64s.
func EncodeVPageC(vd []core.VD) ([]byte, error) {
	if len(vd) >= maxCodecEntries {
		return nil, fmt.Errorf("vstore: %d entries exceed the codec V-page limit %d", len(vd), maxCodecEntries-1)
	}
	shift, raw := 0, false
	for _, v := range vd {
		s := codecShiftFor(v.DoV)
		if s < 0 || v.NVO < 0 {
			raw = true
			break
		}
		if s > shift {
			shift = s
		}
	}
	mode := byte(shift)
	if raw {
		mode = codecModeRaw
	}
	buf := make([]byte, 0, 4+len(vd)*12+crcBytes)
	buf = append(buf, codecMagicVPage, codecVersion, mode)
	buf = binary.AppendUvarint(buf, uint64(len(vd)))
	for _, v := range vd {
		if raw {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.DoV))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.NVO))
		} else {
			buf = binary.AppendUvarint(buf, uint64(math.Ldexp(v.DoV, shift)))
			buf = binary.AppendUvarint(buf, uint64(v.NVO))
		}
	}
	return appendCRC(buf), nil
}

// DecodeVPageC decodes one codec V-page unit, appending its entries to
// dst (a buffer the caller owns) and returning the extended slice; an
// empty page appends nothing. It validates the header, the payload
// bounds, and the CRC trailer. Malformed input of any shape — bad magic,
// unknown version, shift overflow, truncated varints, torn CRC — returns
// an error (wrapping errCodec), never panics.
//
// hdov:hot-path
func DecodeVPageC(dst []core.VD, buf []byte) ([]core.VD, error) {
	if len(buf) < codecMinUnitBytes {
		return nil, codecErrf("V-page unit is %d bytes, minimum %d", len(buf), codecMinUnitBytes)
	}
	if buf[0] != codecMagicVPage {
		return nil, codecErrf("V-page magic %02x, want %02x", buf[0], codecMagicVPage)
	}
	if buf[1] != codecVersion {
		return nil, codecErrf("V-page version %d, want %d", buf[1], codecVersion)
	}
	mode := buf[2]
	if mode != codecModeRaw && mode > maxCodecShift {
		return nil, codecErrf("V-page shift %d overflows float64 (max %d)", mode, maxCodecShift)
	}
	n, pos, err := uvarintAt(buf, 3, "entry count")
	if err != nil {
		return nil, err
	}
	if n >= maxCodecEntries {
		return nil, codecErrf("entry count %d exceeds limit %d", n, maxCodecEntries-1)
	}
	base := len(dst)
	vd := slices.Grow(dst, int(n))[:base+int(n)]
	for i := base; i < len(vd); i++ {
		if mode == codecModeRaw {
			if pos+12 > len(buf) {
				return nil, codecErrf("raw64 entry %d truncated", i-base)
			}
			vd[i].DoV = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			vd[i].NVO = int32(binary.LittleEndian.Uint32(buf[pos+8:]))
			pos += 12
		} else {
			var units, nvo uint64
			if units, pos, err = uvarintAt(buf, pos, "DoV"); err != nil {
				return nil, err
			}
			if units >= 1<<53 {
				return nil, codecErrf("entry %d: %d grid units overflow the float64 mantissa", i-base, units)
			}
			if nvo, pos, err = uvarintAt(buf, pos, "NVO"); err != nil {
				return nil, err
			}
			if nvo > math.MaxInt32 {
				return nil, codecErrf("entry %d: NVO %d overflows int32", i-base, nvo)
			}
			vd[i].DoV = math.Ldexp(float64(units), -int(mode))
			vd[i].NVO = int32(nvo)
		}
	}
	if err := checkCRC(buf, pos); err != nil {
		return nil, err
	}
	return vd, nil
}

// EncodePointerSegmentC encodes a vertical-scheme codec flip segment:
// a visibility bitmap over all numNodes nodes plus, per visible node in
// id order, the uvarint byte length of its V-page unit. Unit offsets are
// the prefix sums, so the segment is the vertical index delta-compressed.
// lens[id] < 0 marks an invisible node.
func EncodePointerSegmentC(numNodes int, lens []int64) ([]byte, error) {
	if len(lens) != numNodes {
		return nil, fmt.Errorf("vstore: %d lengths for %d nodes", len(lens), numNodes)
	}
	bitmap := make([]byte, (numNodes+7)/8)
	for id, ln := range lens {
		if ln >= 0 {
			bitmap[id/8] |= 1 << (id % 8)
		}
	}
	buf := make([]byte, 0, 4+len(bitmap)+numNodes+crcBytes)
	buf = append(buf, codecMagicPointerSeg, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(numNodes))
	buf = append(buf, bitmap...)
	for _, ln := range lens {
		if ln >= 0 {
			buf = binary.AppendUvarint(buf, uint64(ln))
		}
	}
	return appendCRC(buf), nil
}

// DecodePointerSegmentC parses a vertical codec flip segment into dst:
// each visible node's unit at absolute heap offset base plus the prefix
// sum of the lengths before it. Every length is validated against
// codecMinUnitBytes and the running prefix sum against blockBytes, so a
// corrupt segment fails at flip time rather than as a misdirected heap
// read mid-query. On error dst holds a partial fill.
//
// hdov:hot-path
func DecodePointerSegmentC(buf []byte, numNodes int, base, blockBytes int64, dst *cellTable) error {
	if numNodes < 0 {
		return codecErrf("negative node count %d", numNodes)
	}
	if len(buf) < codecMinUnitBytes {
		return codecErrf("pointer segment is %d bytes, minimum %d", len(buf), codecMinUnitBytes)
	}
	if buf[0] != codecMagicPointerSeg {
		return codecErrf("pointer segment magic %02x, want %02x", buf[0], codecMagicPointerSeg)
	}
	if buf[1] != codecVersion {
		return codecErrf("pointer segment version %d, want %d", buf[1], codecVersion)
	}
	n, pos, err := uvarintAt(buf, 2, "node count")
	if err != nil {
		return err
	}
	if n != uint64(numNodes) {
		return codecErrf("segment covers %d nodes, scheme has %d", n, numNodes)
	}
	bitmapBytes := (numNodes + 7) / 8
	if pos+bitmapBytes > len(buf) {
		return codecErrf("visibility bitmap truncated")
	}
	bitmap := buf[pos : pos+bitmapBytes]
	pos += bitmapBytes
	dst.reset(numNodes)
	var next int64
	for id := 0; id < numNodes; id++ {
		if bitmap[id/8]&(1<<(id%8)) == 0 {
			continue
		}
		var ln uint64
		if ln, pos, err = uvarintAt(buf, pos, "unit length"); err != nil {
			return err
		}
		if ln < codecMinUnitBytes || int64(ln) > blockBytes {
			return codecErrf("node %d unit length %d out of range (block %d bytes)", id, ln, blockBytes)
		}
		dst.put(id, base+next, int32(ln))
		next += int64(ln)
		if next > blockBytes {
			return codecErrf("node %d unit ends at %d, past block end %d", id, next, blockBytes)
		}
	}
	return checkCRC(buf, pos)
}

// EncodeIndexSegmentC encodes an indexed-vertical codec flip segment:
// only the visible nodes appear, as (id delta, unit length) uvarint
// pairs in ascending id order — the §4.3 index with both columns
// delta/varint packed.
func EncodeIndexSegmentC(ids []int, lens []int64) ([]byte, error) {
	if len(ids) != len(lens) {
		return nil, fmt.Errorf("vstore: %d ids, %d lengths", len(ids), len(lens))
	}
	buf := make([]byte, 0, 4+len(ids)*3+crcBytes)
	buf = append(buf, codecMagicIndexSeg, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := -1
	for i, id := range ids {
		if id <= prev {
			return nil, fmt.Errorf("vstore: ids not strictly ascending at %d", i)
		}
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		buf = binary.AppendUvarint(buf, uint64(lens[i]))
		prev = id
	}
	return appendCRC(buf), nil
}

// DecodeIndexSegmentC parses an indexed-vertical codec flip segment into
// dst. base is the absolute heap offset of the cell's V-page block (units
// follow the segment); blockBytes bounds the prefix sums. Ids must be
// strictly ascending and in range, lengths plausible — a corrupt segment
// cannot silently alias two nodes onto one unit or point outside the
// heap. On error dst holds a partial fill.
//
// hdov:hot-path
func DecodeIndexSegmentC(buf []byte, numNodes int, base, blockBytes int64, dst *cellTable) error {
	if len(buf) < codecMinUnitBytes {
		return codecErrf("index segment is %d bytes, minimum %d", len(buf), codecMinUnitBytes)
	}
	if buf[0] != codecMagicIndexSeg {
		return codecErrf("index segment magic %02x, want %02x", buf[0], codecMagicIndexSeg)
	}
	if buf[1] != codecVersion {
		return codecErrf("index segment version %d, want %d", buf[1], codecVersion)
	}
	n, pos, err := uvarintAt(buf, 2, "entry count")
	if err != nil {
		return err
	}
	if n > uint64(numNodes) {
		return codecErrf("%d entries for %d nodes", n, numNodes)
	}
	dst.reset(numNodes)
	id := -1
	var next int64
	for i := uint64(0); i < n; i++ {
		var delta, ln uint64
		if delta, pos, err = uvarintAt(buf, pos, "id delta"); err != nil {
			return err
		}
		if delta == 0 {
			return codecErrf("entry %d: zero id delta (duplicate node)", i)
		}
		if uint64(id)+delta > uint64(numNodes-1) {
			return codecErrf("entry %d: node %d out of range (%d nodes)", i, uint64(id)+delta, numNodes)
		}
		id += int(delta)
		if ln, pos, err = uvarintAt(buf, pos, "unit length"); err != nil {
			return err
		}
		if ln < codecMinUnitBytes || int64(ln) > blockBytes {
			return codecErrf("node %d unit length %d out of range (block %d bytes)", id, ln, blockBytes)
		}
		dst.put(id, base+next, int32(ln))
		next += int64(ln)
		if next > blockBytes {
			return codecErrf("node %d unit ends at %d, past block end %d", id, next, blockBytes)
		}
	}
	return checkCRC(buf, pos)
}

// heapRef locates one encoded unit inside a codec heap: absolute byte
// offset and exact byte length.
type heapRef struct {
	off int64
	n   int32
}

// heapWriter accumulates a codec heap in memory during a build; flush
// lays it on disk as one contiguous extent. Units are packed back to
// back with no padding — readers know exact lengths, and a unit that
// straddles a page boundary just reads one extra sequential page.
type heapWriter struct {
	buf []byte
}

// append adds one unit and returns its byte offset in the heap.
func (w *heapWriter) append(unit []byte) int64 {
	off := int64(len(w.buf))
	w.buf = append(w.buf, unit...)
	return off
}

// flush allocates the heap's pages and writes it, returning the base page
// and the heap's exact byte length.
func (w *heapWriter) flush(d *storage.Disk) (storage.PageID, int64, error) {
	base := d.AllocPages(d.PagesFor(int64(len(w.buf))))
	if len(w.buf) == 0 {
		return base, 0, nil
	}
	if err := d.WriteBytes(base, w.buf); err != nil {
		return 0, 0, err
	}
	return base, int64(len(w.buf)), nil
}

// readHeapUnit fetches one unit (heap-relative byte offset, exact length)
// through r, charged as one short sequential light run starting at the
// unit's first page. The simulated transfer cost is therefore paid on
// *encoded* bytes: a 40-byte unit costs one page, not one fixed slot per
// entry fan-out.
func readHeapUnit(r storage.Reader, base storage.PageID, heapBytes int64, ref heapRef) ([]byte, error) {
	if ref.off < 0 || ref.n < int32(codecMinUnitBytes) || ref.off+int64(ref.n) > heapBytes {
		return nil, codecErrf("heap unit [%d,%d) outside heap (%d bytes)", ref.off, ref.off+int64(ref.n), heapBytes)
	}
	psz := int64(r.PageSize())
	page := base + storage.PageID(ref.off/psz)
	skip := int(ref.off % psz)
	buf, err := r.ReadBytes(page, skip+int(ref.n), storage.ClassLight)
	if err != nil {
		return nil, err
	}
	return buf[skip : skip+int(ref.n)], nil
}

// peekHeapUnit is readHeapUnit against the disk's unmetered PeekBytes —
// fsck's codec walk must not pollute the experiment counters.
func peekHeapUnit(d *storage.Disk, base storage.PageID, heapBytes int64, ref heapRef) ([]byte, error) {
	if ref.off < 0 || ref.n < int32(codecMinUnitBytes) || ref.off+int64(ref.n) > heapBytes {
		return nil, codecErrf("heap unit [%d,%d) outside heap (%d bytes)", ref.off, ref.off+int64(ref.n), heapBytes)
	}
	psz := int64(d.PageSize())
	skip := int(ref.off % psz)
	buf, err := d.PeekBytes(base+storage.PageID(ref.off/psz), skip+int(ref.n))
	if err != nil {
		return nil, err
	}
	return buf[skip:], nil
}

// heapUnitPages appends the disk pages a unit occupies to out, skipping
// pages out already lists — the page list of a failed codec unit.
func heapUnitPages(out []storage.PageID, base storage.PageID, psz int64, ref heapRef) []storage.PageID {
	first := base + storage.PageID(ref.off/psz)
	last := base + storage.PageID((ref.off+int64(ref.n)-1)/psz)
	for p := first; p <= last; p++ {
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// codecSeg locates one cell's flip segment inside a codec heap. The
// cell's V-page units follow the segment immediately, so a flip plus the
// subsequent V-page reads is a single forward scan — one seek. off is
// nilSlot for a cell with no visible nodes (no segment, no I/O).
type codecSeg struct {
	off      int64
	segLen   int32
	unitsLen int64 // total bytes of the cell's V-page units after the segment
}

// unitsBase returns the heap offset of the cell's first V-page unit.
func (s codecSeg) unitsBase() int64 { return s.off + int64(s.segLen) }

// codecSegBytes is the logical footprint of one resident directory entry
// (offset + segment length + units length), charged to SizeBytes like the
// indexed scheme's directory.
const codecSegBytes = 8 + 4 + 8

// Options configures a scheme build. The zero value reproduces the
// original fixed-slot layout.
type Options struct {
	// VPageBytes is the fixed V-page slot size for the raw layout
	// (<= 0 means DefaultVPageBytes). Ignored by the codec layout,
	// which stores variable-length units.
	VPageBytes int
	// Codec selects the compressed V-page layout (DESIGN.md §13):
	// variable-length CRC-sealed units in a packed heap instead of
	// fixed slots. Query results are byte-identical either way.
	Codec bool
}

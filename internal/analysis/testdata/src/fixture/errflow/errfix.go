// Package errfix is the errflow fixture: storage-write shaped methods,
// binary encoding calls, and decoder-named functions whose error results
// are variously dropped and consumed.
package errfix

import (
	"bytes"
	"encoding/binary"
)

// Disk carries a WriteBytes method matching the watched writer names.
type Disk struct{}

// WriteBytes mirrors the storage write API.
func (d *Disk) WriteBytes(p int64, b []byte) error {
	return nil
}

// DecodeThing matches the project's decoder naming convention.
func DecodeThing(b []byte) (int, error) {
	return len(b), nil
}

// IgnoredWrite drops the write error as a bare statement.
func IgnoredWrite(d *Disk) {
	d.WriteBytes(0, nil) // want errflow
}

// BlankWrite assigns the error to the blank identifier.
func BlankWrite(d *Disk) {
	_ = d.WriteBytes(0, nil) // want errflow
}

// CheckedWrite propagates the error: clean.
func CheckedWrite(d *Disk) error {
	return d.WriteBytes(0, nil)
}

// IgnoredBinary drops binary.Write's error.
func IgnoredBinary(buf *bytes.Buffer) {
	binary.Write(buf, binary.LittleEndian, uint32(1)) // want errflow
}

// BlankDecode blanks the decoder error position.
func BlankDecode(b []byte) int {
	v, _ := DecodeThing(b) // want errflow
	return v
}

// CheckedDecode propagates: clean.
func CheckedDecode(b []byte) (int, error) {
	return DecodeThing(b)
}

// DeferredWrite loses the error in a defer.
func DeferredWrite(d *Disk) {
	defer d.WriteBytes(0, nil) // want errflow
}

// The codec decoders (DESIGN.md §13) return the error in positions the
// original fixtures never exercised: last of two non-error results, and
// slice-valued decodes whose partial result must never be used on error.

// DecodeUnitC mirrors DecodeVPageC: slice result plus error.
func DecodeUnitC(b []byte) ([]uint64, error) {
	return nil, nil
}

// DecodeSegmentC mirrors DecodePointerSegmentC: two payload results with
// the error in the third position.
func DecodeSegmentC(b []byte, n int) ([]int64, []int32, error) {
	return nil, nil, nil
}

// BlankDecodeUnit blanks the slice decoder's error.
func BlankDecodeUnit(b []byte) []uint64 {
	v, _ := DecodeUnitC(b) // want errflow
	return v
}

// BlankDecodeSegment blanks the error in the third result position.
func BlankDecodeSegment(b []byte) ([]int64, []int32) {
	offs, lens, _ := DecodeSegmentC(b, 4) // want errflow
	return offs, lens
}

// IgnoredDecode drops a decode as a bare statement.
func IgnoredDecode(b []byte) {
	DecodeUnitC(b) // want errflow
}

// GoDecode loses the decoder error in a go statement.
func GoDecode(b []byte) {
	go DecodeSegmentC(b, 4) // want errflow
}

// CheckedDecodeSegment propagates: clean.
func CheckedDecodeSegment(b []byte) ([]int64, []int32, error) {
	return DecodeSegmentC(b, 4)
}

// The incremental-update write path (dynamic scenes): op application,
// page-run serialization and the epoch commit. A dropped error on any of
// these publishes state that never durably applied.

// ApplyOps mirrors core.ApplyOps: evolved state plus error.
func ApplyOps(ops []int) ([]int, error) {
	return ops, nil
}

// WriteRunTo mirrors storage.Disk.WriteRunTo.
func (d *Disk) WriteRunTo(w *bytes.Buffer, from int64) (int64, error) {
	return 0, nil
}

// ApplyRun mirrors storage.Disk.ApplyRun.
func (d *Disk) ApplyRun(b []byte) error {
	return nil
}

// CommitEpoch mirrors dbfile.CommitEpoch / DB.CommitEpoch.
func (d *Disk) CommitEpoch(dir string) (int, error) {
	return 0, nil
}

// BlankApplyOps blanks the op-application error: the caller would
// publish a tree the batch never produced.
func BlankApplyOps(ops []int) []int {
	t, _ := ApplyOps(ops) // want errflow
	return t
}

// IgnoredRun drops the run-write error as a bare statement.
func IgnoredRun(d *Disk, buf *bytes.Buffer) {
	d.WriteRunTo(buf, 0) // want errflow
}

// BlankApplyRun blanks the run-application error.
func BlankApplyRun(d *Disk, b []byte) {
	_ = d.ApplyRun(b) // want errflow
}

// BlankCommit blanks the commit error while keeping the epoch number —
// the caller would report an epoch that never committed.
func BlankCommit(d *Disk) int {
	epoch, _ := d.CommitEpoch("dir") // want errflow
	return epoch
}

// DeferredCommit loses the commit error in a defer.
func DeferredCommit(d *Disk) {
	defer d.CommitEpoch("dir") // want errflow
}

// CheckedCommit propagates: clean.
func CheckedCommit(d *Disk) (int, error) {
	if err := d.ApplyRun(nil); err != nil {
		return 0, err
	}
	return d.CommitEpoch("dir")
}

// The path-sensitive checks added with the CFG engine: errors captured
// into a variable but never read on any path to exit, and errors handed
// to a callee that never reads its error parameter.

// ReassignedUnchecked checks the first write but silently overwrites the
// checked variable with a second, never-checked error before returning.
func ReassignedUnchecked(d *Disk) {
	err := d.WriteBytes(0, nil)
	if err != nil {
		return
	}
	err = d.WriteBytes(1, nil) // want errflow
}

// ReassignedChecked re-checks after the reassignment: clean.
func ReassignedChecked(d *Disk) error {
	err := d.WriteBytes(0, nil)
	if err != nil {
		return err
	}
	err = d.WriteBytes(1, nil)
	return err
}

// CheckedOnOnePath only examines the second error on one branch, but a
// merge where any incoming path checked it stays quiet (intersection
// join): clean by design.
func CheckedOnOnePath(d *Disk, verbose bool) {
	err := d.WriteBytes(0, nil)
	if verbose {
		_ = err.Error()
	}
}

// sinkErr accepts an error and never reads it.
func sinkErr(severity int, err error) {
	_ = severity
}

// logErr reads its error parameter: a legitimate handler.
func logErr(err error) {
	if err != nil {
		_ = err.Error()
	}
}

// PassedToSink hands the write error to a callee that drops it.
func PassedToSink(d *Disk) {
	err := d.WriteBytes(0, nil)
	sinkErr(1, err) // want errflow
}

// PassedToHandler hands the error to a real handler: clean.
func PassedToHandler(d *Disk) {
	err := d.WriteBytes(0, nil)
	logErr(err)
}

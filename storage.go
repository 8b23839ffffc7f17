package hdov

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dbfile"
	"repro/internal/storage"
	"repro/internal/storage/filestore"
)

// BackendKind selects the storage media the database's paged disk runs
// on. The simulated backend is the default and keeps every historical
// behavior: in-memory pages, deterministic seek/transfer cost accounting,
// zero wall-clock I/O. The file backend stores pages in a real OS file
// and serves reads through an mmap window and vectored preads, charging
// measured wall-clock latency alongside the simulated costs (see
// DiskStats.MeasuredTime).
type BackendKind int

const (
	// BackendSim is the simulated in-memory disk (the default).
	BackendSim BackendKind = iota
	// BackendFile is the real-file backend: a page-granular OS file with
	// an mmap read path, single-syscall multi-page reads, and
	// fsync-on-commit durability for Save/CommitEpoch.
	BackendFile
)

func (k BackendKind) String() string {
	switch k {
	case BackendSim:
		return "sim"
	case BackendFile:
		return "file"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// StorageConfig selects and shapes the storage backend.
type StorageConfig struct {
	// Backend picks the media; the zero value is the simulated disk.
	Backend BackendKind
	// Dir is where a file backend built by Build keeps its page file.
	// Empty means a private temporary directory, removed by DB.Close.
	// OpenWith ignores Dir: a file-backed reopen always materializes its
	// page file inside the database directory itself.
	Dir string
	// NoMmap disables the file backend's mmap read window (pure pread).
	NoMmap bool
}

// newDisk builds the disk Build lays the database out on, honoring the
// storage configuration. It returns the disk plus the temporary directory
// owning an unnamed file backend's page file ("" otherwise).
func newDisk(st StorageConfig) (*storage.Disk, string, error) {
	if st.Backend != BackendFile {
		return storage.NewDisk(0, storage.DefaultCostModel()), "", nil
	}
	dir, tmp := st.Dir, ""
	if dir == "" {
		t, err := os.MkdirTemp("", "hdov-pages-")
		if err != nil {
			return nil, "", fmt.Errorf("hdov: storage: %w", err)
		}
		dir, tmp = t, t
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", fmt.Errorf("hdov: storage: %w", err)
	}
	fs, err := filestore.Create(filepath.Join(dir, dbfile.PagesFileName), 0,
		filestore.Options{NoMmap: st.NoMmap})
	if err != nil {
		if tmp != "" {
			_ = os.RemoveAll(tmp)
		}
		return nil, "", fmt.Errorf("hdov: storage: %w", err)
	}
	return storage.NewDiskOn(fs, storage.DefaultCostModel()), tmp, nil
}

// OpenWith is Open with explicit storage media: the same validation and
// reattachment, onto either the simulated disk or a real page file
// materialized inside the database directory (see BackendFile). Queries
// answer byte-identically on either backend; only DiskStats.MeasuredTime
// differs.
func OpenWith(dir string, st StorageConfig) (*DB, error) {
	d, err := dbfile.OpenWith(dir, dbfile.OpenOptions{
		FileBacked: st.Backend == BackendFile,
		NoMmap:     st.NoMmap,
	})
	if err != nil {
		return nil, err
	}
	db := fromDatabase(d)
	db.cfg.Storage = st
	return db, nil
}

// Close releases the database's storage media: the page file handle and
// mmap window of a file backend, which shard stores share as views and
// so never hold open themselves, and the temporary directory of an
// unnamed file-backed Build. On the simulated backend it is a cheap
// no-op, so defer db.Close() is always safe. The DB must not be used
// afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	tmp := db.tmpDir
	db.tmpDir = ""
	db.mu.Unlock()
	first := db.disk.Close()
	if tmp != "" {
		if err := os.RemoveAll(tmp); err != nil && first == nil {
			first = err
		}
	}
	return first
}

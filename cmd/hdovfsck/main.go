// Command hdovfsck checks saved HDoV database directories: it verifies the
// manifest's self-checksum, every page run's committed size and CRC (the
// disk image and each epoch's run, chained in order), every layout
// pointer, and — for codec-layout databases — every codec unit's
// header and CRC, and reports intact vs damaged. With -repair, damaged
// artifacts and stray temporaries from interrupted saves are moved into a
// quarantine/ subdirectory, and codec-invalid pages are parked in
// quarantine.json so reopened databases fail their reads fast instead of
// decoding garbage — the next save starts clean without destroying
// evidence. For every readable manifest a dynamicscene line reports the
// committed epoch counter, op-log length and number of epoch runs, so an
// interrupted CommitEpoch is visible at a glance (strays with epoch=0
// deltas=0 mean the commit never landed).
//
// A directory containing shardmap.json is a sharded save (SaveSharded):
// the shard map is validated as an exact partition of the viewing-cell
// grid, and every shard's own database directory is checked with the
// same manifest/image/layout/codec battery — one damaged shard marks the
// whole topology damaged.
//
// Usage:
//
//	hdovfsck DIR...
//	hdovfsck -repair DIR
//	hdovfsck -deep DIR
//
// Exit status: 0 if every directory is intact, 1 if any is damaged, 2 on
// usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cells"
	"repro/internal/dbfile"
	"repro/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdovfsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		repair = fs.Bool("repair", false, "move damaged files and stray temporaries into quarantine/")
		deep   = fs.Bool("deep", false, "additionally reopen intact databases end to end (slower)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: hdovfsck [-repair] [-deep] DIR...")
		return 2
	}

	exit := 0
	for _, dir := range fs.Args() {
		if sub, ok := shardDirs(dir, stdout, stderr, &exit); ok {
			for _, sd := range sub {
				checkOne(sd, *repair, *deep, stdout, stderr, &exit)
			}
			continue
		}
		checkOne(dir, *repair, *deep, stdout, stderr, &exit)
	}
	return exit
}

// shardDirs detects a sharded save: when dir/shardmap.json exists it
// validates the persisted map as an exact grid partition and returns the
// shard database directories to check. The bool reports detection, not
// validity — a sharded dir with a broken map returns (nil, true) and
// marks the run damaged.
func shardDirs(dir string, stdout, stderr io.Writer, exit *int) ([]string, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, "shardmap.json"))
	if os.IsNotExist(err) {
		return nil, false
	}
	if err != nil {
		fmt.Fprintf(stderr, "hdovfsck: %s: %v\n", dir, err)
		*exit = 2
		return nil, true
	}
	var man struct {
		NumCells int      `json:"num_cells"`
		Starts   []int    `json:"starts"`
		Dirs     []string `json:"dirs"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		fmt.Fprintf(stdout, "%s: DAMAGED (shardmap.json: %v)\n", dir, err)
		if *exit == 0 {
			*exit = 1
		}
		return nil, true
	}
	m := shard.Map{NumCells: man.NumCells}
	for _, s := range man.Starts {
		m.Starts = append(m.Starts, cells.CellID(s))
	}
	if err := m.Validate(); err != nil {
		fmt.Fprintf(stdout, "%s: DAMAGED (shard map: %v)\n", dir, err)
		if *exit == 0 {
			*exit = 1
		}
		return nil, true
	}
	if len(man.Dirs) != m.Shards() {
		fmt.Fprintf(stdout, "%s: DAMAGED (shard map: %d shards but %d directories)\n",
			dir, m.Shards(), len(man.Dirs))
		if *exit == 0 {
			*exit = 1
		}
		return nil, true
	}
	fmt.Fprintf(stdout, "%s: sharded, %d shards over %d cells, map partitions exactly\n",
		dir, m.Shards(), m.NumCells)
	out := make([]string, len(man.Dirs))
	for i, sub := range man.Dirs {
		out[i] = filepath.Join(dir, sub)
	}
	return out, true
}

// checkOne runs the standard single-database battery on dir, raising
// *exit for damage (1) or I/O trouble (2).
func checkOne(dir string, repair, deep bool, stdout, stderr io.Writer, exit *int) {
	rep, err := dbfile.Fsck(dir)
	if err != nil {
		fmt.Fprintf(stderr, "hdovfsck: %s: %v\n", dir, err)
		*exit = 2
		return
	}
	status := "intact"
	if !rep.Intact() {
		status = "DAMAGED"
		if *exit == 0 {
			*exit = 1
		}
	}
	fmt.Fprintf(stdout, "%s: %s (manifest=%v image=%v layout=%v codec=%v)\n",
		dir, status, rep.ManifestOK, rep.ImageOK, rep.LayoutOK, rep.CodecOK)
	if rep.ManifestOK {
		fmt.Fprintf(stdout, "  dynamicscene: epoch=%d ops=%d deltas=%d\n",
			rep.Epoch, rep.OpsLogged, rep.DeltasApplied)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "  problem: %s\n", p)
	}
	for _, id := range rep.BadCodecPages {
		fmt.Fprintf(stdout, "  bad codec page: %d\n", id)
	}
	for _, s := range rep.Stray {
		fmt.Fprintf(stdout, "  stray: %s\n", s)
	}

	if deep && rep.Intact() {
		if _, err := dbfile.Open(dir); err != nil {
			fmt.Fprintf(stdout, "  deep: open failed: %v\n", err)
			if *exit == 0 {
				*exit = 1
			}
		} else {
			fmt.Fprintf(stdout, "  deep: open ok\n")
		}
	}

	if repair && (!rep.Intact() || len(rep.Stray) > 0) {
		moved, err := dbfile.Repair(dir, rep)
		if err != nil {
			fmt.Fprintf(stderr, "hdovfsck: %s: %v\n", dir, err)
			*exit = 2
			return
		}
		for _, name := range moved {
			fmt.Fprintf(stdout, "  quarantined: %s\n", name)
		}
	}
}

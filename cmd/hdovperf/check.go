package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	hdov "repro"
)

// sampleEvery is the sampling stride of the correctness gate: every
// sampleEvery-th answer a client receives is digested and later compared
// with the reference database's answer.
const sampleEvery = 16

// sample is one digested answer, tagged with the epoch its session had
// pinned.
type sample struct {
	epoch, cell int
	digest      uint64
}

// answerDigest hashes an answer bit for bit: its cell, its threshold and
// its ordered items, DoV bits included.
func answerDigest(r *hdov.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	put(uint64(r.Cell))
	put(math.Float64bits(r.Eta))
	put(uint64(len(r.Items)))
	for _, it := range r.Items {
		put(uint64(it.ObjectID))
		put(uint64(int64(it.NodeID)))
		put(math.Float64bits(it.DoV))
		put(math.Float64bits(it.Detail))
		put(uint64(it.Level))
		put(math.Float64bits(it.Polygons))
		put(uint64(it.Bytes))
	}
	return h.Sum64()
}

// referenceConfig is the gate's reference: the same dataset on the
// simulated backend in the raw layout, queried serially and unsharded.
// The repository's differential suites hold the codec, file-backed,
// coherent and sharded paths byte-identical to it.
func referenceConfig(cfg hdov.Config) hdov.Config {
	cfg.Storage = hdov.StorageConfig{}
	cfg.Codec = false
	cfg.Scheme = hdov.SchemeIndexedVertical
	return cfg
}

// verify builds the reference database and compares every sample with
// its answer at threshold eta. Samples taken at epoch e are checked after
// replaying the first e batches. It returns how many samples it checked
// and a description of each mismatch.
func verify(cfg hdov.Config, eta float64, samples []sample, batches []move) (int, []string, error) {
	ref, err := hdov.Build(referenceConfig(cfg))
	if err != nil {
		return 0, nil, fmt.Errorf("reference build: %w", err)
	}
	defer ref.Close()
	byEpoch := make(map[int][]sample)
	var epochs []int
	for _, s := range samples {
		if _, ok := byEpoch[s.epoch]; !ok {
			epochs = append(epochs, s.epoch)
		}
		byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
	}
	sort.Ints(epochs)
	var bad []string
	checked := 0
	for _, e := range epochs {
		if e > len(batches) {
			return checked, bad, fmt.Errorf("sample at epoch %d, but only %d batches applied", e, len(batches))
		}
		for ref.Epoch() < e {
			m := batches[ref.Epoch()]
			if _, err := ref.Update(func(u *hdov.Updater) { u.Move(m.id, m.dx, m.dy, 0) }); err != nil {
				return checked, bad, fmt.Errorf("reference replay of batch %d: %w", ref.Epoch()+1, err)
			}
		}
		s := ref.NewSession()
		want := make(map[int]uint64)
		for _, smp := range byEpoch[e] {
			d, ok := want[smp.cell]
			if !ok {
				r, err := s.QueryCell(smp.cell, eta)
				if err != nil {
					return checked, bad, fmt.Errorf("reference query of cell %d: %w", smp.cell, err)
				}
				d = answerDigest(r)
				want[smp.cell] = d
			}
			checked++
			if d != smp.digest {
				bad = append(bad, fmt.Sprintf("epoch %d cell %d: digest %016x, reference %016x", e, smp.cell, smp.digest, d))
			}
		}
	}
	return checked, bad, nil
}

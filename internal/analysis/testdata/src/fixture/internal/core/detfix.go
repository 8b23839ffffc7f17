// Package corefix is the determinism fixture; its import path ends in
// internal/core, so the pass's default query-path scope applies.
package corefix

import (
	"math/rand" // want determinism
	"time"
)

// Timestamp reads the wall clock.
func Timestamp() int64 {
	return time.Now().UnixNano() // want determinism
}

// Roll draws randomness.
func Roll() int {
	return rand.Intn(6) // want determinism
}

// MapWalk ranges over a map: iteration order changes per run.
func MapWalk(m map[int]int) []int {
	var out []int
	for _, v := range m { // want determinism
		out = append(out, v)
	}
	return out
}

// SortedWalk enumerates through a caller-ordered key slice: clean.
func SortedWalk(m map[int]int, keys []int) []int {
	var out []int
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// SuppressedWalk documents why order cannot leak; the directive
// suppresses the finding.
func SuppressedWalk(m map[int]int) int {
	s := 0
	//lint:ignore determinism fixture: an integer sum is iteration-order independent
	for _, v := range m {
		s += v
	}
	return s
}

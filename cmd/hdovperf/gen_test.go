package main

import (
	"reflect"
	"testing"
)

// draw takes a fixed number of every kind of input from a fresh generator.
func draw(seed int64) (cells, walk, blocks []int, ops []move) {
	g := newGen(seed, 1, 24)
	for i := 0; i < 200; i++ {
		cells = append(cells, g.cell())
	}
	c := g.cell()
	for i := 0; i < 200; i++ {
		c = g.step(c)
		walk = append(walk, c)
	}
	var buf []int
	for i := 0; i < 20; i++ {
		buf = g.block(buf, blockSide)
		blocks = append(blocks, buf...)
	}
	return cells, walk, blocks, newGen(seed, 0, 24).moves(movers)
}

func TestGenSeedDeterminesInputs(t *testing.T) {
	c1, w1, b1, o1 := draw(7)
	c2, w2, b2, o2 := draw(7)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("the same seed gave different inputs")
	}
	c3, w3, b3, o3 := draw(8)
	if reflect.DeepEqual(c1, c3) || reflect.DeepEqual(w1, w3) || reflect.DeepEqual(b1, b3) || reflect.DeepEqual(o1, o3) {
		t.Fatal("another seed gave an identical input stream")
	}
	if reflect.DeepEqual(draw1(7, 1), draw1(7, 2)) {
		t.Fatal("two client streams of one seed are identical")
	}
}

func draw1(seed int64, stream uint64) []int {
	g := newGen(seed, stream, 24)
	var out []int
	for i := 0; i < 50; i++ {
		out = append(out, g.cell())
	}
	return out
}

func TestGenWalkStepsAreNeighbourMoves(t *testing.T) {
	const side = 6
	g := newGen(3, 1, side)
	stayed, moved := 0, 0
	for start := 0; start < side*side; start++ {
		c := start
		for i := 0; i < 100; i++ {
			next := g.step(c)
			if next < 0 || next >= side*side {
				t.Fatalf("step from %d left the grid: %d", c, next)
			}
			dx, dy := next%side-c%side, next/side-c/side
			if dx < -1 || dx > 1 || dy < -1 || dy > 1 {
				t.Fatalf("step from %d to %d is not a neighbour move", c, next)
			}
			if next == c {
				stayed++
			} else {
				moved++
			}
			c = next
		}
	}
	if stayed == 0 || moved == 0 {
		t.Fatalf("walk never stayed (%d) or never moved (%d)", stayed, moved)
	}
}

func TestGenBlocksStayInsideGrid(t *testing.T) {
	const side, k = 6, 4
	g := newGen(5, 1, side)
	corners := make(map[int]bool)
	var buf []int
	for i := 0; i < 500; i++ {
		buf = g.block(buf, k)
		if len(buf) != k*k {
			t.Fatalf("block has %d cells, want %d", len(buf), k*k)
		}
		x0, y0 := buf[0]%side, buf[0]/side
		if x0+k > side || y0+k > side {
			t.Fatalf("block at (%d,%d) leaves the %d×%d grid", x0, y0, side, side)
		}
		for j, c := range buf {
			if want := (y0+j/k)*side + x0 + j%k; c != want {
				t.Fatalf("block cell %d is %d, want %d", j, c, want)
			}
		}
		corners[buf[0]] = true
	}
	if want := (side - k + 1) * (side - k + 1); len(corners) != want {
		t.Fatalf("blocks started at %d positions, want all %d", len(corners), want)
	}
}

func TestGenMoves(t *testing.T) {
	ids := make([]int64, 100)
	for i := range ids {
		ids[i] = int64(7 * i)
	}
	want := make(map[int64]bool)
	for _, id := range ids {
		want[id] = true
	}
	for seed := int64(1); seed <= 2; seed++ {
		got := make(map[int64]bool)
		for _, m := range newGen(seed, 0, 24).moves(ids) {
			if (m.dx != moveStep && m.dx != -moveStep) || (m.dy != moveStep && m.dy != -moveStep) {
				t.Fatalf("move by (%g,%g), want ±%g in x and y", m.dx, m.dy, moveStep)
			}
			got[m.id] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d moves %d distinct objects, want each of the %d given once", seed, len(got), len(ids))
		}
	}
}

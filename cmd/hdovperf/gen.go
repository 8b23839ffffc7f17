package main

import "math/rand/v2"

// gen draws one client's request inputs from the workload seed. It knows
// only the grid side and the object count, never the database's answers,
// so the same (seed, stream) pair always yields the same cell stream,
// walk path or update ops, however fast the program under test runs.
type gen struct {
	r    *rand.Rand
	side int
}

// newGen returns the generator for one stream of a seed. Streams keep
// concurrent clients (and the writer) independent of one another.
func newGen(seed int64, stream uint64, side int) *gen {
	return &gen{r: rand.New(rand.NewPCG(uint64(seed), stream)), side: side}
}

// cell returns a uniformly random cell of the grid.
func (g *gen) cell() int { return g.r.IntN(g.side * g.side) }

// step moves a walker from cell c to one of its eight neighbours, or
// keeps it in place, with equal odds; a move off the grid is clamped to
// the edge.
func (g *gen) step(c int) int {
	x := clampInt(c%g.side+g.r.IntN(3)-1, 0, g.side-1)
	y := clampInt(c/g.side+g.r.IntN(3)-1, 0, g.side-1)
	return y*g.side + x
}

// block fills dst with the k×k cells of a square block at a random
// position inside the grid, row by row, and returns it.
func (g *gen) block(dst []int, k int) []int {
	x0, y0 := g.r.IntN(g.side-k+1), g.r.IntN(g.side-k+1)
	dst = dst[:0]
	for y := y0; y < y0+k; y++ {
		for x := x0; x < x0+k; x++ {
			dst = append(dst, y*g.side+x)
		}
	}
	return dst
}

// move is one single-object update batch.
type move struct {
	id     int64
	dx, dy float64
}

// moves returns one move of each object in ids by ±moveStep metres in
// both x and y, in a seeded order with seeded signs. The objects are the
// same for every seed: what an Update costs depends mostly on which object
// moves, and a fixed set keeps the writer's work alike from seed to seed.
func (g *gen) moves(ids []int64) []move {
	sign := func() float64 { return float64(2*g.r.IntN(2) - 1) }
	out := make([]move, len(ids))
	for i, k := range g.r.Perm(len(ids)) {
		out[i] = move{id: ids[k], dx: moveStep * sign(), dy: moveStep * sign()}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	return max(lo, min(v, hi))
}

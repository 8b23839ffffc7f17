// Package snapfix exercises snapfreeze: stores into types marked
// hdov:frozen-after-publish are flagged outside construction windows,
// with exemptions for provably fresh locals and value copies.
package snapfix

// Node is a snapshot tree node; once reachable from a published epoch
// it is traversed lock-free and must never change.
// hdov:frozen-after-publish
type Node struct {
	Count   int
	Entries []Entry
	Left    *Node
}

// Entry is one frozen child slot.
// hdov:frozen-after-publish
type Entry struct {
	Pid int64
}

// Mutate stores into a node someone may have published: flagged.
func Mutate(n *Node) {
	n.Count = 7 // want snapfreeze
}

// MutateEntry stores through the entry slice into the shared backing
// array: flagged.
func MutateEntry(n *Node) {
	n.Entries[0].Pid = 4 // want snapfreeze
}

// MutateDeep reaches a frozen node through a frozen node: flagged.
func MutateDeep(n *Node) {
	n.Left.Count = 1 // want snapfreeze
}

// Republish mutates a node fetched from shared state: the freshness
// exemption does not apply to values that came from elsewhere.
func Republish(reg []*Node) {
	n := reg[0]
	n.Count = 5 // want snapfreeze
}

// Build is a construction window: it assembles a tree nothing has
// published yet, so its stores are legal.
// hdov:construction-window
func Build(entries []Entry) *Node {
	n := &Node{}
	n.Count = len(entries)
	n.Entries = entries
	return n
}

// FreshLocal allocates its own node: no published epoch can reach it,
// so the stores are quiet even without a window annotation.
func FreshLocal() *Node {
	n := &Node{}
	n.Count = 3
	return n
}

// ValueCopy mutates the function's own copy of a value parameter:
// quiet, the caller's node is untouched.
func ValueCopy(n Node) int {
	n.Count = 2
	return n.Count
}

// ValueCopySharedBacking looks like a copy but the entry slice still
// points at the published backing array: flagged.
func ValueCopySharedBacking(n Node) {
	n.Entries[0].Pid = 9 // want snapfreeze
}

// View is a frozen window over bytes that others read too: a value
// type whose slice field shares its backing array with every copy.
// hdov:frozen-after-publish
type View struct {
	buf []byte
	n   int
}

// ViewOwnField mutates the function's own copy of a view: quiet.
func ViewOwnField(v View) int {
	v.n = 1
	return v.n
}

// ViewSharedBytes writes through a value copy's slice field into the
// shared buffer: flagged.
func ViewSharedBytes(v View) {
	v.buf[0] = 1 // want snapfreeze
}

// poke mutates its parameter: the store is flagged here, and the
// call-graph summary marks poke as a mutator for call-site checks.
func poke(n *Node) {
	n.Count++ // want snapfreeze
}

// PokePublished hands a possibly-published node to a mutator: the call
// site is flagged through the MutatesParam summary.
func PokePublished(n *Node) {
	poke(n) // want snapfreeze
}

// PokeFresh hands a fresh node to the same mutator: quiet at the call
// site (poke's own store is reported once, above).
func PokeFresh() *Node {
	n := &Node{}
	poke(n)
	return n
}

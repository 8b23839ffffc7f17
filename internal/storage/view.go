package storage

// View returns a disk that serves d's media as a separate arm — the
// shard store of cell-range sharding (DESIGN.md §16). The view shares
// d's Backend and copies its page size, cost model, allocation watermark
// and corruption/quarantine marks; its stats, stream heads, in-flight
// table, buffer pool, fault injector and circuit breaker start fresh, so
// a tree reopened over it answers byte-identically to d while pricing
// only its own traffic.
//
// No media is copied. What makes sharing safe is that committed pages are
// never rewritten: the source only appends above the view's watermark
// (Update), and the view reads nothing at or above it — range checks,
// WriteTo and ResidentBytes are all bounded by the view's own watermark.
// A view never writes the shared media and never closes it: only the
// source's Close does.
func (d *Disk) View() *Disk {
	v := NewDiskOn(d.media, d.cost)
	v.view = true
	d.mu.RLock()
	v.allocated = d.allocated
	for id := range d.corrupt {
		v.corrupt[id] = true
	}
	for id := range d.quarantined {
		v.quarantined[id] = true
	}
	d.mu.RUnlock()
	return v
}

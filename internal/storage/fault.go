package storage

import (
	"math/rand"
	"sync"
	"time"
)

// Fault injection: a seeded, deterministic policy that makes page reads
// fail the way aging media does. Faults come in two classes:
//
//   - transient: the sector reads fine after a bounded number of retries
//     (vibration, marginal signal). The disk's retry-with-backoff loop
//     absorbs them; callers see success and Stats.Retries counts the cost.
//   - permanent: the sector never reads back. Retries are exhausted and
//     the read returns a CorruptError identifying the page, which
//     fault-tolerant callers quarantine.
//
// Injection is deterministic given (Seed, read sequence), so a replayed
// walkthrough session fails in exactly the same places every run. Under
// concurrent sessions the interleaving of reads — and therefore which
// read draws which fault — depends on scheduling; tests that need
// bit-exact failures across runs plant them with InjectPageFault or
// CorruptPage instead of PageProb.

// FaultKind classifies an injected fault.
type FaultKind uint8

const (
	// FaultTransient faults clear after a bounded number of failed read
	// attempts.
	FaultTransient FaultKind = iota
	// FaultPermanent faults persist until the page is rewritten.
	FaultPermanent
)

func (k FaultKind) String() string {
	if k == FaultPermanent {
		return "permanent"
	}
	return "transient"
}

// FaultConfig is a deterministic fault-injection policy for a Disk.
type FaultConfig struct {
	// Seed drives the probabilistic draws. The same seed over the same
	// read sequence injects the same faults.
	Seed int64
	// PageProb is the per-page-read probability that a fault fires.
	PageProb float64
	// TransientFrac is the fraction of probabilistic faults that are
	// transient (in [0,1]; the rest are permanent and sticky — once a
	// page draws a permanent fault it stays unreadable until rewritten).
	TransientFrac float64
	// MaxRetries bounds the retry loop per logical read (default 3).
	// Probabilistic transient faults always clear within this budget.
	MaxRetries int
	// RetryBackoff is the simulated-time penalty per retry on top of one
	// page transfer (default: the cost model's seek — a retry repositions
	// the head).
	RetryBackoff time.Duration
	// Jitter adds a seeded random fraction (up to +50% of RetryBackoff)
	// to each retry's simulated backoff, decorrelating the retry storms
	// of concurrent sessions that hit the same damaged region. The jitter
	// stream has its own rng (derived from Seed) so enabling it never
	// changes which reads draw faults.
	Jitter bool
}

// targetedFault is a fault planted on a specific page with InjectPageFault.
type targetedFault struct {
	kind FaultKind
	// remaining counts failed read attempts left before a transient fault
	// clears (unused for permanent faults).
	remaining int
}

// faultInjector holds the policy state behind its own mutex; it never
// touches the disk's stats — check returns the retry charge and the
// caller applies it through Disk.charge, so accounting stays behind one
// lock (DESIGN.md §10).
type faultInjector struct {
	mu  sync.Mutex
	cfg FaultConfig
	// transfer caches the disk's per-page transfer cost for retry charging.
	transfer time.Duration
	rng      *rand.Rand
	// jrng drives backoff jitter; a separate stream keeps fault draws
	// identical whether or not Jitter is enabled.
	jrng     *rand.Rand
	targeted map[PageID]*targetedFault
	// sticky records pages that drew a probabilistic permanent fault.
	sticky map[PageID]bool
}

// InjectFaults installs a fault-injection policy on the disk. Reads gain a
// bounded retry-with-backoff loop: transient faults are absorbed (counted
// in Stats.Retries), permanent faults surface as CorruptError after the
// retry budget. Replaces any previously installed policy.
func (d *Disk) InjectFaults(cfg FaultConfig) {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = d.cost.Seek
	}
	fi := &faultInjector{
		cfg:      cfg,
		transfer: d.cost.TransferPage,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		jrng:     rand.New(rand.NewSource(cfg.Seed ^ 0x6a69747465726a67)),
		targeted: make(map[PageID]*targetedFault),
		sticky:   make(map[PageID]bool),
	}
	d.mu.Lock()
	d.faults = fi
	d.mu.Unlock()
}

// ClearFaults removes the injection policy, including any sticky
// probabilistic permanent faults it accumulated. Explicit CorruptPage
// marks and quarantines are untouched.
func (d *Disk) ClearFaults() {
	d.mu.Lock()
	d.faults = nil
	d.mu.Unlock()
}

// InjectPageFault plants a fault on a specific page. For transient faults,
// failures is how many read attempts fail before the fault clears
// (minimum 1); it is ignored for permanent faults. Installs a zero-
// probability policy if none is active, so targeted faults work on their
// own.
func (d *Disk) InjectPageFault(id PageID, kind FaultKind, failures int) {
	d.mu.RLock()
	fi := d.faults
	d.mu.RUnlock()
	if fi == nil {
		d.InjectFaults(FaultConfig{})
		d.mu.RLock()
		fi = d.faults
		d.mu.RUnlock()
	}
	if failures < 1 {
		failures = 1
	}
	fi.mu.Lock()
	fi.targeted[id] = &targetedFault{kind: kind, remaining: failures}
	fi.mu.Unlock()
}

// heal clears injected faults for a rewritten page.
func (f *faultInjector) heal(id PageID) {
	f.mu.Lock()
	delete(f.targeted, id)
	delete(f.sticky, id)
	f.mu.Unlock()
}

// check simulates reading page id under the policy: the initial attempt
// plus up to MaxRetries retries. corrupt says whether the page carries an
// explicit CorruptPage mark. It returns the retry count and simulated-time
// cost the caller must charge (each retry costs RetryBackoff plus one page
// transfer) and the final outcome: nil once a retry succeeds, CorruptError
// when the budget is exhausted. Permanent faults (explicit marks, targeted
// permanents, and sticky probabilistic permanents) survive every retry.
func (f *faultInjector) check(corrupt bool, id PageID) (retries int64, cost time.Duration, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	permanent := corrupt || f.sticky[id]
	transient := 0
	if !permanent {
		if t, ok := f.targeted[id]; ok {
			if t.kind == FaultPermanent {
				permanent = true
			} else {
				transient = t.remaining
			}
		} else if f.cfg.PageProb > 0 && f.rng.Float64() < f.cfg.PageProb {
			if f.rng.Float64() < f.cfg.TransientFrac {
				// Always clears within the retry budget: transient faults
				// are by definition the ones retries absorb.
				transient = 1 + f.rng.Intn(f.cfg.MaxRetries)
			} else {
				permanent = true
				f.sticky[id] = true
			}
		}
	}
	if !permanent && transient <= 0 {
		return 0, 0, nil
	}
	for attempt := 0; ; attempt++ {
		// This attempt fails.
		if !permanent {
			transient--
			if t, ok := f.targeted[id]; ok && t.kind == FaultTransient {
				t.remaining--
				if t.remaining <= 0 {
					delete(f.targeted, id)
				}
			}
		}
		if attempt >= f.cfg.MaxRetries {
			return retries, cost, &CorruptError{Page: id}
		}
		retries++
		backoff := f.cfg.RetryBackoff
		if f.cfg.Jitter {
			backoff += time.Duration(f.jrng.Float64() * float64(f.cfg.RetryBackoff) / 2)
		}
		cost += backoff + f.transfer
		if !permanent && transient <= 0 {
			return retries, cost, nil
		}
	}
}

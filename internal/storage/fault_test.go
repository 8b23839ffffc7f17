package storage

import (
	"errors"
	"testing"
)

func faultDisk(t *testing.T, pages int) (*Disk, PageID) {
	t.Helper()
	d := NewDisk(0, DefaultCostModel())
	start := d.AllocPages(pages)
	buf := make([]byte, d.PageSize())
	for i := 0; i < pages; i++ {
		buf[0] = byte(i)
		if err := d.WritePage(start+PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	return d, start
}

// TestFaultDeterminism: the same seed over the same read sequence injects
// the same faults — replayed experiments fail in the same places.
func TestFaultDeterminism(t *testing.T) {
	run := func() ([]bool, int64) {
		d, start := faultDisk(t, 64)
		d.InjectFaults(FaultConfig{Seed: 42, PageProb: 0.2, TransientFrac: 0.5})
		outcomes := make([]bool, 64)
		for i := range outcomes {
			_, err := d.ReadBytes(start+PageID(i), d.PageSize(), ClassLight)
			outcomes[i] = err == nil
		}
		return outcomes, d.Stats().Retries
	}
	a, ra := run()
	b, rb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("page %d: outcome differs between identical runs", i)
		}
	}
	if ra != rb {
		t.Fatalf("retries differ: %d vs %d", ra, rb)
	}
}

// TestTransientFaultsAbsorbed: with a transient-only policy every read
// succeeds; the only trace is a nonzero retry count and extra simulated
// time.
func TestTransientFaultsAbsorbed(t *testing.T) {
	d, start := faultDisk(t, 64)
	d.InjectFaults(FaultConfig{Seed: 7, PageProb: 1, TransientFrac: 1})
	for i := 0; i < 64; i++ {
		if _, err := d.ReadBytes(start+PageID(i), d.PageSize(), ClassLight); err != nil {
			t.Fatalf("page %d: transient fault surfaced: %v", i, err)
		}
	}
	if d.Stats().Retries == 0 {
		t.Fatal("no retries counted")
	}
}

// TestPermanentFaultSticky: a probabilistic permanent fault keeps failing
// on re-read (no lucky second draw) until the page is rewritten.
func TestPermanentFaultSticky(t *testing.T) {
	d, start := faultDisk(t, 8)
	d.InjectFaults(FaultConfig{Seed: 1, PageProb: 1, TransientFrac: 0})
	var ce *CorruptError
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CorruptError", err)
	} else if ce.Page != start {
		t.Fatalf("failing page = %d, want %d", ce.Page, start)
	}
	d.ClearFaults()
	d.InjectFaults(FaultConfig{Seed: 1, PageProb: 0})
	// Re-injecting with zero probability must not matter: sticky state
	// lives in the policy, so the fresh policy reads clean...
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("fresh policy still fails: %v", err)
	}
	// ...but under one continuous policy the same page stays dead.
	d.InjectFaults(FaultConfig{Seed: 1, PageProb: 1, TransientFrac: 0})
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); err == nil {
		t.Fatal("permanent fault did not fire")
	}
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); err == nil {
		t.Fatal("permanent fault was not sticky")
	}
}

// TestTargetedTransientClears: a planted transient fault fails exactly the
// requested number of attempts, then the page reads clean with no retries.
func TestTargetedTransientClears(t *testing.T) {
	d, start := faultDisk(t, 8)
	d.InjectPageFault(start+2, FaultTransient, 2)
	before := d.Stats()
	if _, err := d.ReadBytes(start+2, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("transient within retry budget surfaced: %v", err)
	}
	if got := d.Stats().Retries - before.Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	before = d.Stats()
	if _, err := d.ReadBytes(start+2, d.PageSize(), ClassLight); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Retries != before.Retries {
		t.Fatal("cleared fault still caused retries")
	}
}

// TestTargetedTransientExceedsBudget: more failures than MaxRetries allows
// surfaces as CorruptError, but the fault still wears down and later
// clears.
func TestTargetedTransientExceedsBudget(t *testing.T) {
	d, start := faultDisk(t, 8)
	d.InjectFaults(FaultConfig{MaxRetries: 2})
	d.InjectPageFault(start, FaultTransient, 5)
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// 3 attempts consumed; 2 remain.
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("remaining transient failures not absorbed: %v", err)
	}
}

// TestTargetedPermanentUntilRewrite: a planted permanent fault survives
// any number of reads and clears only when the page is rewritten.
func TestTargetedPermanentUntilRewrite(t *testing.T) {
	d, start := faultDisk(t, 8)
	d.InjectPageFault(start+1, FaultPermanent, 0)
	for i := 0; i < 3; i++ {
		if _, err := d.ReadBytes(start+1, d.PageSize(), ClassLight); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	if err := d.WritePage(start+1, make([]byte, d.PageSize())); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadBytes(start+1, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("rewritten page still faulty: %v", err)
	}
}

// TestQuarantineFailFast: reading a quarantined page fails immediately
// with no media cost — no seek, no transfer, no retries.
func TestQuarantineFailFast(t *testing.T) {
	d, start := faultDisk(t, 8)
	d.Quarantine(start + 3)
	if !d.IsQuarantined(start + 3) {
		t.Fatal("page not quarantined")
	}
	if d.NumQuarantined() != 1 {
		t.Fatalf("NumQuarantined = %d, want 1", d.NumQuarantined())
	}
	before := d.Stats()
	_, err := d.ReadBytes(start+3, d.PageSize(), ClassLight)
	var ce *CorruptError
	if !errors.As(err, &ce) || !ce.Quarantined {
		t.Fatalf("err = %v, want quarantined CorruptError", err)
	}
	after := d.Stats()
	if after != before {
		t.Fatalf("quarantined read charged media cost: %+v vs %+v", after, before)
	}
	// Extent reads refuse before charging anything, too.
	before = after
	if err := d.ReadExtent(start, 8, ClassHeavy); !errors.As(err, &ce) || !ce.Quarantined {
		t.Fatalf("extent err = %v, want quarantined CorruptError", err)
	}
	if d.Stats() != before {
		t.Fatal("quarantined extent read charged media cost")
	}
	d.ClearQuarantine()
	if _, err := d.ReadBytes(start+3, d.PageSize(), ClassLight); err != nil {
		t.Fatal(err)
	}
}

// TestWritePageClearsCorruption: rewriting a page clears the corruption
// mark, the quarantine, and injected fault state — the repair path works.
func TestWritePageClearsCorruption(t *testing.T) {
	d, start := faultDisk(t, 8)
	d.CorruptPage(start)
	d.Quarantine(start)
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if err := d.WritePage(start, make([]byte, d.PageSize())); err != nil {
		t.Fatal(err)
	}
	if d.IsQuarantined(start) {
		t.Fatal("rewrite left the page quarantined")
	}
	if _, err := d.ReadBytes(start, d.PageSize(), ClassLight); err != nil {
		t.Fatalf("rewritten page still corrupt: %v", err)
	}
}

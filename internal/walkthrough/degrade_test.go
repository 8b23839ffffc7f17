package walkthrough_test

import (
	"reflect"
	"testing"

	"repro/internal/render"
	"repro/internal/storage"
	"repro/internal/testenv"
	"repro/internal/walkthrough"
)

// cleanEnvFaults restores the shared test environment after fault
// injection: later tests (and other packages' tests in the same process)
// must see a pristine disk.
func cleanEnvFaults(t *testing.T, env *testenv.Env) {
	t.Helper()
	t.Cleanup(func() {
		env.Tree.FaultTolerant = false
		env.Disk.ClearFaults()
		env.Disk.ClearQuarantine()
	})
}

// TestFaultFreeReplayIdentical: with no faults injected, a fault-tolerant
// replay produces the same trace as a strict one — enabling the mode
// changes nothing until a fault actually fires.
func TestFaultFreeReplayIdentical(t *testing.T) {
	env := testenv.Get(testenv.Small())
	cleanEnvFaults(t, env)
	s := walkthrough.RecordNormal(env.Scene, 150, 3)
	play := func() *walkthrough.Result {
		p := &walkthrough.VisualPlayer{
			Tree:   env.Tree,
			Eta:    0.001,
			Delta:  true,
			Render: render.DefaultConfig(),
		}
		res, err := p.Play(s)
		if err != nil {
			t.Fatal(err)
		}
		// Simulated query/frame time depends on the disk head position
		// left behind by whatever ran before this playback; the I/O
		// counters below pin the actual read sequence, so drop the
		// time fields from the comparison.
		for i := range res.Frames {
			res.Frames[i].QueryTime = 0
			res.Frames[i].Total = 0
		}
		return res
	}
	env.Tree.FaultTolerant = false
	strict := play()
	env.Tree.FaultTolerant = true
	tolerant := play()
	if !reflect.DeepEqual(strict, tolerant) {
		t.Fatal("fault-tolerant replay differs from strict replay with no faults injected")
	}
	if tolerant.Degradations != 0 {
		t.Fatalf("phantom degradations: %d", tolerant.Degradations)
	}
}

// TestReplayOverPermanentFaults: a session replayed over a disk with 1%
// injected permanent page faults completes every frame; degraded frames
// report Degradation events instead of errors.
func TestReplayOverPermanentFaults(t *testing.T) {
	env := testenv.Get(testenv.Small())
	cleanEnvFaults(t, env)
	env.Tree.FaultTolerant = true
	env.Disk.InjectFaults(storage.FaultConfig{Seed: 5, PageProb: 0.01, TransientFrac: 0})
	s := walkthrough.RecordNormal(env.Scene, 200, 3)
	p := &walkthrough.VisualPlayer{
		Tree:   env.Tree,
		Eta:    0.001,
		Delta:  true,
		Render: render.DefaultConfig(),
	}
	res, err := p.Play(s)
	if err != nil {
		t.Fatalf("replay aborted despite fault tolerance: %v", err)
	}
	if len(res.Frames) != 200 {
		t.Fatalf("%d frames, want 200", len(res.Frames))
	}
	if res.Degradations == 0 {
		t.Fatal("1%% permanent faults fired no degradations — injection not reaching the traversal")
	}
	if res.DegradedFrames == 0 || res.DegradedFrames > res.Degradations {
		t.Fatalf("DegradedFrames = %d, Degradations = %d", res.DegradedFrames, res.Degradations)
	}
	sum := 0
	for _, f := range res.Frames {
		sum += f.Degradations
	}
	if sum != res.Degradations {
		t.Fatalf("per-frame degradations sum to %d, total says %d", sum, res.Degradations)
	}
	if env.Disk.NumQuarantined() == 0 {
		t.Fatal("no pages quarantined after degraded replay")
	}
}

// TestReplayTransientOnly: with transient-only injection, replay succeeds
// with zero degradations even in strict mode — the retry loop absorbs
// everything — and the retry count is visible in the trace.
func TestReplayTransientOnly(t *testing.T) {
	env := testenv.Get(testenv.Small())
	cleanEnvFaults(t, env)
	env.Disk.InjectFaults(storage.FaultConfig{Seed: 3, PageProb: 0.05, TransientFrac: 1})
	s := walkthrough.RecordNormal(env.Scene, 150, 3)
	p := &walkthrough.VisualPlayer{
		Tree:   env.Tree,
		Eta:    0.001,
		Delta:  true,
		Render: render.DefaultConfig(),
	}
	res, err := p.Play(s)
	if err != nil {
		t.Fatalf("transient fault surfaced: %v", err)
	}
	if res.Degradations != 0 {
		t.Fatalf("transient faults degraded %d frames", res.Degradations)
	}
	var retries int64
	for _, f := range res.Frames {
		retries += f.Retries
	}
	if retries == 0 {
		t.Fatal("no retries recorded in the trace")
	}
	if env.Disk.Stats().Retries == 0 {
		t.Fatal("disk stats show no retries")
	}
}

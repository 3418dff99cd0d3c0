package machine

import (
	"errors"
	"reflect"
	"testing"

	"memento/internal/config"
	"memento/internal/faultinject"
	"memento/internal/simerr"
	"memento/internal/telemetry"
	"memento/internal/workload"
)

// runCold runs the named workload on a fresh machine, the reference every
// warm run is compared against.
func runCold(t *testing.T, name string, opt Options) Result {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	tr := workload.Generate(p)
	m, err := New(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSnapshotDeterminism: a run restored from a post-setup checkpoint must
// be byte-identical to a cold run — stats, buckets, and timeline samples —
// on every workload and both stacks. This is the oracle the warm-start
// machinery lives or dies by.
func TestSnapshotDeterminism(t *testing.T) {
	profiles := workload.Profiles()
	if testing.Short() {
		profiles = profiles[:4]
	}
	for _, p := range profiles {
		tr := workload.Generate(p)
		for _, stack := range []Stack{Baseline, Memento} {
			opt := Options{Stack: stack, TimelineInterval: 2000}
			m, err := New(config.Default())
			if err != nil {
				t.Fatal(err)
			}
			cold, err := m.Run(tr, opt)
			if err != nil {
				t.Fatalf("%s/%v cold: %v", p.Name, stack, err)
			}
			ws, err := PrepareWarm(config.Default(), tr, opt)
			if err != nil {
				t.Fatalf("%s/%v prepare: %v", p.Name, stack, err)
			}
			warm, err := ws.Run(tr, opt)
			if err != nil {
				t.Fatalf("%s/%v warm: %v", p.Name, stack, err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("%s/%v: warm result differs from cold\ncold: %+v\nwarm: %+v", p.Name, stack, cold, warm)
			}
			if ws.SetupCycles() == 0 {
				t.Errorf("%s/%v: checkpoint reports zero setup cycles", p.Name, stack)
			}
		}
	}
}

// TestSnapshotReuse: one checkpoint seeds many identical runs — restore
// clones, it does not consume — and the package-level warm cache used by
// RunWarm reproduces cold results too.
func TestSnapshotReuse(t *testing.T) {
	p, _ := workload.ByName("aes")
	tr := workload.Generate(p)
	opt := Options{Stack: Memento}
	ws, err := PrepareWarm(config.Default(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ws.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := ws.Run(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("reuse %d: result drifted", i)
		}
	}
	cold := runCold(t, "aes", opt)
	for i := 0; i < 2; i++ {
		r, err := RunWarm(config.Default(), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, r) {
			t.Fatalf("RunWarm pass %d differs from cold run", i)
		}
	}
}

// TestSnapshotProbeRestore: probes attached to a restored run must still
// receive events — the cached probe flags and pooled scratch are recomputed
// on state swap, not left pointing at pre-restore state.
func TestSnapshotProbeRestore(t *testing.T) {
	p, _ := workload.ByName("jd")
	tr := workload.Generate(p)
	for _, stack := range []Stack{Baseline, Memento} {
		opt := Options{Stack: stack}
		ws, err := PrepareWarm(config.Default(), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		var probe telemetry.Counters
		opt.Probe = &probe
		opt.TimelineInterval = 1000
		r, err := ws.Run(tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		wantEvents := uint64(tr.Len()) + 1 // +1 teardown
		if got := probe.TotalEvents(); got != wantEvents {
			t.Fatalf("%v: probe on restored run saw %d events, want %d", stack, got, wantEvents)
		}
		if r.Timeline == nil || r.Timeline.Len() < 2 {
			t.Fatalf("%v: restored run recorded no timeline", stack)
		}
		// The restored run's counters must equal a cold observed run's:
		// observation never perturbs simulation, restored or not.
		cold := runCold(t, "jd", Options{Stack: stack})
		r.Timeline = nil
		if !reflect.DeepEqual(cold, r) {
			t.Fatalf("%v: probed warm run differs from cold run", stack)
		}
	}
}

// TestSnapshotFaultInject: fault-injection hooks are re-armed at restore —
// a hook handed to a warm run observes the run's own (post-setup) frame
// allocations, deterministically across restores of the same checkpoint.
func TestSnapshotFaultInject(t *testing.T) {
	p, _ := workload.ByName("UM")
	tr := workload.Generate(p)
	for _, stack := range []Stack{Baseline, Memento} {
		opt := Options{Stack: stack}
		ws, err := PrepareWarm(config.Default(), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (uint64, error) {
			o := opt
			h := faultinject.FailNth(5)
			o.AllocHook = h
			_, err := ws.Run(tr, o)
			return h.Attempts(), err
		}
		a1, err1 := run()
		a2, err2 := run()
		if a1 == 0 {
			t.Fatalf("%v: hook observed no allocations on restored run", stack)
		}
		if a1 != a2 {
			t.Fatalf("%v: hook attempts differ across restores: %d vs %d", stack, a1, a2)
		}
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%v: injected outcome differs across restores: %v vs %v", stack, err1, err2)
		}
		if err1 != nil && !errors.Is(err1, simerr.ErrFaultInjected) {
			t.Fatalf("%v: unexpected error type: %v", stack, err1)
		}
	}
}

// TestSnapshotPairMatchesSerialRuns: the concurrent warm RunPair must give
// exactly what two independent cold runs give.
func TestSnapshotPairMatchesSerialRuns(t *testing.T) {
	p, _ := workload.ByName("mk")
	tr := workload.Generate(p)
	base, mem, err := RunPair(config.Default(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, runCold(t, "mk", Options{Stack: Baseline})) {
		t.Fatal("pair baseline differs from serial cold run")
	}
	if !reflect.DeepEqual(mem, runCold(t, "mk", Options{Stack: Memento})) {
		t.Fatal("pair memento differs from serial cold run")
	}
}

// TestSnapshotKeyMismatchRejected: a checkpoint only restores into the
// setup it was captured from.
func TestSnapshotKeyMismatchRejected(t *testing.T) {
	p, _ := workload.ByName("aes")
	tr := workload.Generate(p)
	ws, err := PrepareWarm(config.Default(), tr, Options{Stack: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Run(tr, Options{Stack: Memento}); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("stack mismatch accepted: %v", err)
	}
	other, _ := workload.ByName("deploy") // Golang: different setup key
	if _, err := ws.Run(workload.Generate(other), Options{Stack: Baseline}); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("trace mismatch accepted: %v", err)
	}
}

// TestSnapshotMachineRoundTrip: machine-level snapshot/restore brings every
// component's counters back exactly, and a restored machine replays to the
// same totals.
func TestSnapshotMachineRoundTrip(t *testing.T) {
	p, _ := workload.ByName("html")
	tr := workload.Generate(p)
	m, err := New(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	r1, err := m.Run(tr, Options{Stack: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RestoreMetered(snap); err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(config.Default())
	if m.d.Stats() != fresh.d.Stats() || m.h.Stats() != fresh.h.Stats() ||
		m.tlbs.Stats() != fresh.tlbs.Stats() || m.k.Stats() != fresh.k.Stats() {
		t.Fatal("restore did not reset component counters to the captured state")
	}
	r2, err := m.Run(tr, Options{Stack: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("replay after restore differs")
	}
	otherCfg := config.Default()
	otherCfg.ClockGHz *= 2
	mismatched, err := New(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mismatched.RestoreMetered(snap); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("cross-config restore accepted: %v", err)
	}
}

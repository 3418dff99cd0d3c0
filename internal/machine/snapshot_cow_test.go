package machine

import (
	"reflect"
	"sync"
	"testing"

	"memento/internal/config"
	"memento/internal/workload"
)

// TestSnapshotCleanRestoreZeroAlloc pins the clean-restore fast path: on a
// machine whose components are already based on the snapshot and untouched
// since capture, Restore is a pure handle check and re-Snapshot reuses the
// cached handle — neither may copy or allocate.
func TestSnapshotCleanRestoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation counts")
	}
	m, err := New(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if got := testing.AllocsPerRun(100, func() {
		if _, err := m.RestoreMetered(snap); err != nil {
			panic(err)
		}
	}); got != 0 {
		t.Errorf("clean restore allocated %.0f times per run, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if m.Snapshot() != snap {
			panic("re-snapshot of an untouched machine returned a new handle")
		}
	}); got != 0 {
		t.Errorf("clean re-snapshot allocated %.0f times per run, want 0", got)
	}
	rs, err := m.RestoreMetered(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rs.RestoreBytes != 0 {
		t.Errorf("clean restore copied %d bytes, want 0", rs.RestoreBytes)
	}
	if rs.SnapshotBytes == 0 {
		t.Error("snapshot reports zero size")
	}
}

// TestSnapshotAliasingSafety: a snapshot and the live machine alias
// copy-on-write trees, so mutating the machine after capture must never
// corrupt the snapshot — the machine privatizes written paths instead of
// scribbling on frozen nodes. CI's snapshot smoke job runs this under
// -race.
func TestSnapshotAliasingSafety(t *testing.T) {
	p, _ := workload.ByName("html")
	tr := workload.Generate(p)
	for _, stack := range []Stack{Baseline, Memento} {
		opt := Options{Stack: stack}
		m, err := New(config.Default())
		if err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		// Mutate the live machine heavily after capture.
		want, err := m.Run(tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		// The snapshot must still describe the pristine pre-run machine:
		// restoring it into a fresh machine replays to the same result.
		m2, err := New(config.Default())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m2.RestoreMetered(snap); err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		got, err := m2.Run(tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: snapshot was corrupted by the live machine's run", stack)
		}
		// And a delta restore back onto the dirtied machine is equivalent to
		// the full copy a fresh machine got.
		if _, err := m.RestoreMetered(snap); err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		again, err := m.Run(tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Fatalf("%v: delta restore diverged from full restore", stack)
		}
	}
}

// TestWarmRestoreMetersRunDelta pins the explicit-machine metering path
// the fleet cost model uses: on a machine the caller holds, Restore right
// after a run reports exactly what a second run's restore would (the
// previous run's delta), strictly below the first run's full copy, and a
// run restored onto the held machine stays bit-identical. No sync.Pool is
// involved, so this holds under the race detector too.
func TestWarmRestoreMetersRunDelta(t *testing.T) {
	p, _ := workload.ByName("aes")
	tr := workload.Generate(p)
	for _, stack := range []Stack{Baseline, Memento} {
		opt := Options{Stack: stack}
		ws, err := PrepareWarm(config.Default(), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		held := func() *Machine {
			m, err := New(config.Default())
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m1, m2 := held(), held()
		r1, full, err := ws.RunOn(m1, tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		r2, runDelta, err := ws.RunOn(m1, tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		if _, _, err := ws.RunOn(m2, tr, opt); err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		delta, err := ws.Restore(m2)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%v: runs on a held machine diverged", stack)
		}
		if delta != runDelta {
			t.Errorf("%v: Restore metered %+v, a second run's restore %+v", stack, delta, runDelta)
		}
		if delta.RestoreBytes == 0 || delta.RestoreBytes >= full.RestoreBytes {
			t.Errorf("%v: delta restore copied %d bytes, want in (0, %d)", stack, delta.RestoreBytes, full.RestoreBytes)
		}
	}
}

// TestSnapshotWarmDeltaBytes pins the point of delta restores: a recycled
// machine's steady-state restore copies strictly less than the first full
// restore, and both stay below the full checkpoint size, while results
// remain bit-identical.
func TestSnapshotWarmDeltaBytes(t *testing.T) {
	p, _ := workload.ByName("aes")
	tr := workload.Generate(p)
	for _, stack := range []Stack{Baseline, Memento} {
		opt := Options{Stack: stack}
		ws, err := PrepareWarm(config.Default(), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		r1, full, err := ws.RunMetered(tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		r2, delta, err := ws.RunMetered(tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%v: metered reruns diverged", stack)
		}
		if full.RestoreBytes == 0 || delta.RestoreBytes == 0 {
			t.Fatalf("%v: restore metering reports zero bytes (full %d, delta %d)",
				stack, full.RestoreBytes, delta.RestoreBytes)
		}
		// Under the race detector sync.Pool drops items at random, so the
		// second run may land on a fresh machine and legitimately pay the
		// full restore again; only insist on a strict delta otherwise.
		if delta.RestoreBytes > full.RestoreBytes ||
			(!raceEnabled && delta.RestoreBytes == full.RestoreBytes) {
			t.Errorf("%v: steady-state delta restore copied %d bytes, not below the first full restore's %d",
				stack, delta.RestoreBytes, full.RestoreBytes)
		}
		if delta.RestoreBytes >= delta.SnapshotBytes {
			t.Errorf("%v: delta restore (%d bytes) not below full checkpoint size (%d bytes)",
				stack, delta.RestoreBytes, delta.SnapshotBytes)
		}
		if delta.SharedBytes == 0 {
			t.Errorf("%v: checkpoint reports no copy-on-write shared state", stack)
		}
		if ws.BaseResidentPages() == 0 {
			t.Errorf("%v: checkpoint reports an empty base image", stack)
		}
	}
}

// TestSnapshotConcurrentFanOut: one checkpoint fans out to concurrent
// restored runs that all share the frozen copy-on-write bases; every
// result must equal the serial one. CI's snapshot smoke job runs this
// under -race, which is what proves shared nodes are never written.
func TestSnapshotConcurrentFanOut(t *testing.T) {
	p, _ := workload.ByName("aes")
	tr := workload.Generate(p)
	for _, stack := range []Stack{Baseline, Memento} {
		opt := Options{Stack: stack}
		ws, err := PrepareWarm(config.Default(), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ws.Run(tr, opt)
		if err != nil {
			t.Fatalf("%v: %v", stack, err)
		}
		const fan = 6
		results := make([]Result, fan)
		errs := make([]error, fan)
		var wg sync.WaitGroup
		for i := 0; i < fan; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 2; j++ {
					r, err := ws.Run(tr, opt)
					if err != nil {
						errs[i] = err
						return
					}
					results[i] = r
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < fan; i++ {
			if errs[i] != nil {
				t.Fatalf("%v: fan-out run %d: %v", stack, i, errs[i])
			}
			if !reflect.DeepEqual(want, results[i]) {
				t.Errorf("%v: fan-out run %d diverged from the serial run", stack, i)
			}
		}
	}
}

// TestWarmRecycledNodesStayPrivate: teardown recycles private page-table
// nodes of both tables through the machine's single free list, which
// is only sound if no recycled node was ever frozen into a checkpoint.
// After several warm runs on held machines, concurrently, every run must
// match a fresh machine's, and a fresh machine restored from the same
// checkpoint must still give the Result and RestoreStats it gave before
// any run. CI runs this under -race, which also proves that recycled
// nodes never cross between machines.
func TestWarmRecycledNodesStayPrivate(t *testing.T) {
	p, _ := workload.ByName("aes")
	tr := workload.Generate(p)
	for _, stack := range []Stack{Baseline, Memento} {
		opt := Options{Stack: stack}
		ws, err := PrepareWarm(config.Default(), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() (Result, RestoreStats) {
			m, err := New(config.Default())
			if err != nil {
				t.Fatal(err)
			}
			r, rs, err := ws.RunOn(m, tr, opt)
			if err != nil {
				t.Fatalf("%v: %v", stack, err)
			}
			return r, rs
		}
		want, wantRS := fresh()
		const workers, runs = 3, 3
		deltas := make([][]RestoreStats, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				m, err := New(config.Default())
				if err != nil {
					errs[g] = err
					return
				}
				for j := 0; j < runs; j++ {
					r, rs, err := ws.RunOn(m, tr, opt)
					if err != nil {
						errs[g] = err
						return
					}
					if !reflect.DeepEqual(want, r) {
						t.Errorf("%v: worker %d run %d diverged from a fresh machine's", stack, g, j)
					}
					deltas[g] = append(deltas[g], rs)
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("%v: worker %d: %v", stack, g, err)
			}
			if !reflect.DeepEqual(deltas[g], deltas[0]) {
				t.Errorf("%v: worker %d restore stats %v, worker 0 %v", stack, g, deltas[g], deltas[0])
			}
		}
		got, gotRS := fresh()
		if !reflect.DeepEqual(want, got) || gotRS != wantRS {
			t.Fatalf("%v: fresh machine after recycling: restore %+v, want %+v; results equal %v",
				stack, gotRS, wantRS, reflect.DeepEqual(want, got))
		}
	}
}

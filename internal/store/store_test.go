package store

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"memento/internal/config"
)

func newTestStore(t *testing.T, opt Options) *Store {
	t.Helper()
	s := New(config.Default(), opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// waitTerminal polls until the job leaves queued/running.
func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := j.Status()
		if st != StatusQueued && st != StatusRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s", j.ID, j.Status())
	return ""
}

func TestNormalizeValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"run ok", JobSpec{Kind: "run", Workload: "html"}, true},
		{"kind case-folded", JobSpec{Kind: " RUN ", Workload: "html"}, true},
		{"workload case-folded", JobSpec{Kind: "run", Workload: "redis"}, true},
		{"missing kind", JobSpec{}, false},
		{"unknown kind", JobSpec{Kind: "explode"}, false},
		{"run needs workload", JobSpec{Kind: "run"}, false},
		{"unknown workload", JobSpec{Kind: "run", Workload: "nope"}, false},
		{"bad stack", JobSpec{Kind: "run", Workload: "html", Stack: "turbo"}, false},
		{"compare rejects stack", JobSpec{Kind: "compare", Workload: "html", Stack: "memento"}, false},
		{"sweep rejects workload", JobSpec{Kind: "sweep", Workload: "html"}, false},
		{"sweep rejects cold", JobSpec{Kind: "sweep", ColdStart: true}, false},
		{"fleet rejects only", JobSpec{Kind: "fleet", Only: "fig8"}, false},
		{"run rejects only", JobSpec{Kind: "run", Workload: "html", Only: "fig8"}, false},
		{"negative interval", JobSpec{Kind: "run", Workload: "html", TimelineInterval: -1}, false},
		{"sweep ok", JobSpec{Kind: "sweep", Only: "fig8"}, true},
		{"fleet ok", JobSpec{Kind: "fleet"}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Normalize()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("%s: error %v does not wrap ErrInvalidSpec", tc.name, err)
			}
		}
	}
}

func TestKeyCanonicalization(t *testing.T) {
	cfg := config.Default()
	a := JobSpec{Kind: "RUN", Workload: "redis"}
	b := JobSpec{Kind: "run", Workload: "Redis"}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	ka, err := a.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("case variants hash differently: %s vs %s", ka, kb)
	}

	c := JobSpec{Kind: "run", Workload: "html"}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	kc, _ := c.Key(cfg)
	if kc == ka {
		t.Error("different specs collided")
	}
	cfg2 := cfg
	cfg2.ClockGHz = 4.0
	kd, _ := a.Key(cfg2)
	if kd == ka {
		t.Error("different machine configs collided")
	}
}

func TestRunJobAndCacheHit(t *testing.T) {
	s := newTestStore(t, Options{Workers: 1, QueueDepth: 4})

	j, err := s.Submit(JobSpec{Kind: "run", Workload: "html"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != StatusDone {
		t.Fatalf("status = %s, want done (err %q)", st, j.View().Error)
	}
	v := j.View()
	if v.CacheHit {
		t.Error("first run reported a cache hit")
	}
	if len(v.Result) == 0 {
		t.Error("done job has no result")
	}

	// Identical resubmission must be served from cache, instantly done.
	j2, err := s.Submit(JobSpec{Kind: "run", Workload: "HTML"})
	if err != nil {
		t.Fatal(err)
	}
	v2 := j2.View()
	if v2.Status != StatusDone || !v2.CacheHit {
		t.Fatalf("resubmit: status=%s cacheHit=%v, want done/true", v2.Status, v2.CacheHit)
	}
	if string(v2.Result) != string(v.Result) {
		t.Error("cached result differs from original")
	}
	evs, done, _ := j2.Events(0)
	if !done {
		t.Error("cache-hit job's event log not finished")
	}
	var sawHit bool
	for _, e := range evs {
		if e.Type == EventCacheHit {
			sawHit = true
		}
	}
	if !sawHit {
		t.Error("cache-hit job missing cache_hit event")
	}

	m := s.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("cache counters = %d/%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.JobsDone != 2 {
		t.Errorf("jobs done = %d, want 2", m.JobsDone)
	}
}

func TestRunJobStreamsSamples(t *testing.T) {
	s := newTestStore(t, Options{Workers: 1})
	j, err := s.Submit(JobSpec{Kind: "run", Workload: "html", TimelineInterval: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != StatusDone {
		t.Fatalf("status = %s, want done", st)
	}
	evs, done, _ := j.Events(0)
	if !done {
		t.Fatal("event log not finished")
	}
	var samples int
	for _, e := range evs {
		if e.Type == EventSample {
			samples++
		}
	}
	if samples == 0 {
		t.Error("timeline run streamed no sample events")
	}
	if last := evs[len(evs)-1]; last.Type != EventDone {
		t.Errorf("last event = %s, want done", last.Type)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// One worker pinned on a slow sweep; the queued job behind it is
	// cancelled before a worker ever picks it up.
	s := newTestStore(t, Options{Workers: 1, QueueDepth: 4})
	blocker, err := s.Submit(JobSpec{Kind: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Kind: "run", Workload: "aes"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	if st := queued.Status(); st != StatusCanceled {
		t.Fatalf("queued job after cancel: %s, want canceled", st)
	}
	_, done, _ := queued.Events(0)
	if !done {
		t.Error("canceled job's event log not finished")
	}
	// Cancel the blocker too so Cleanup's Close doesn't wait a full sweep.
	if _, ok := s.Cancel(blocker.ID); !ok {
		t.Fatal("cancel blocker: not found")
	}
	if st := waitTerminal(t, blocker); st != StatusCanceled {
		t.Fatalf("blocker after cancel: %s, want canceled", st)
	}
	m := s.Metrics()
	if m.JobsCanceled != 2 {
		t.Errorf("canceled = %d, want 2", m.JobsCanceled)
	}
}

func TestQueueFull(t *testing.T) {
	s := newTestStore(t, Options{Workers: 1, QueueDepth: 1})
	// Occupy the worker with a sweep, then fill the single queue slot.
	blocker, err := s.Submit(JobSpec{Kind: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	// The blocker may still be in the queue; keep submitting until two
	// jobs are pending, then the next must be rejected.
	var queued *Job
	for {
		j, err := s.Submit(JobSpec{Kind: "run", Workload: "aes"})
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if queued != nil {
			// Two accepted beyond the blocker: queue must now be full.
			if _, err := s.Submit(JobSpec{Kind: "fleet"}); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("expected ErrQueueFull, got %v", err)
			}
			break
		}
		queued = j
	}
	s.Cancel(blocker.ID)
	waitTerminal(t, blocker)
}

func TestCloseDrainsAndRejects(t *testing.T) {
	s := New(config.Default(), Options{Workers: 1, QueueDepth: 4})
	sweep, err := s.Submit(JobSpec{Kind: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Kind: "run", Workload: "html"})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Both jobs must be terminal: the running sweep canceled at a
	// boundary, the queued job canceled by the draining worker.
	for _, j := range []*Job{sweep, queued} {
		if st := j.Status(); st != StatusCanceled && st != StatusDone {
			t.Errorf("job %s after Close: %s, want terminal", j.ID, st)
		}
	}
	if _, err := s.Submit(JobSpec{Kind: "fleet"}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestConcurrentSubmits(t *testing.T) {
	s := newTestStore(t, Options{Workers: 2, QueueDepth: 64})
	var wg sync.WaitGroup
	jobs := make([]*Job, 8)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(JobSpec{Kind: "run", Workload: "aes"})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	hits := 0
	for _, j := range jobs {
		if j == nil {
			continue
		}
		if st := waitTerminal(t, j); st != StatusDone {
			t.Errorf("job %s: %s, want done", j.ID, st)
		}
		if j.View().CacheHit {
			hits++
		}
	}
	// All eight share one key; at least the stragglers submitted after
	// the first completion are hits. (Races may run a few duplicates.)
	m := s.Metrics()
	if m.JobsSubmitted != 8 {
		t.Errorf("submitted = %d, want 8", m.JobsSubmitted)
	}
	if got := m.JobsDone; got != 8 {
		t.Errorf("done = %d, want 8", got)
	}
}

// TestQueuedCountSettles: a worker that starts a job before Submit has
// returned must still find it counted as queued, so once every job of a
// burst is terminal no queued or running count is left over. Submitters
// cancel each job right after submission, which keeps the test cheap and
// leaves the workers idle and racing Submit as often as possible; a
// concurrent /metrics scraper contends the counters the way a monitored
// daemon does. A lost count never recovers, so the races add up. Run
// under -race, where the window is widest.
func TestQueuedCountSettles(t *testing.T) {
	const submitters, perSubmitter = 4, 500
	const n = submitters * perSubmitter
	s := newTestStore(t, Options{Workers: 2, QueueDepth: n})
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				s.Metrics()
			}
		}
	}()
	var wg sync.WaitGroup
	jobs := make([]*Job, n)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := s.Submit(JobSpec{Kind: "run", Workload: "aes"})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				s.Cancel(j.ID)
				jobs[g*perSubmitter+i] = j
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-scraped
	for _, j := range jobs {
		if j != nil {
			waitTerminal(t, j)
		}
	}
	// A job turns terminal just before its counters move; wait for the
	// counters to account for all n jobs.
	deadline := time.Now().Add(10 * time.Second)
	m := s.Metrics()
	for m.JobsDone+m.JobsCanceled+m.JobsFailed < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		m = s.Metrics()
	}
	if m.JobsQueued != 0 || m.JobsRunning != 0 {
		t.Fatalf("after %d terminal jobs: queued=%d running=%d, want 0/0", n, m.JobsQueued, m.JobsRunning)
	}
}

func TestEventLogResume(t *testing.T) {
	l := newEventLog()
	l.append(EventQueued, nil)
	l.append(EventStarted, nil)
	evs, done, changed := l.snapshot(0)
	if len(evs) != 2 || done {
		t.Fatalf("snapshot(0) = %d events, done=%v", len(evs), done)
	}
	// Wait for the next append via the broadcast channel.
	go l.append(EventDone, nil)
	select {
	case <-changed:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast channel never closed")
	}
	evs, done, _ = l.snapshot(2)
	if len(evs) != 1 || evs[0].Type != EventDone || !done {
		t.Fatalf("snapshot(2) = %+v done=%v", evs, done)
	}
	// Appends after a terminal event are dropped.
	l.append(EventSample, nil)
	evs, _, _ = l.snapshot(0)
	if len(evs) != 3 {
		t.Errorf("post-terminal append not dropped: %d events", len(evs))
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
}

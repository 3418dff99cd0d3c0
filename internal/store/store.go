package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"memento/internal/config"
)

// Status is a job's lifecycle state. Terminal states are done, failed,
// and canceled; exactly one terminal transition happens per job.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Submission errors the API layer maps to HTTP statuses.
var (
	// ErrQueueFull means the bounded FIFO is at capacity (HTTP 429).
	ErrQueueFull = errors.New("job queue full")
	// ErrClosed means the store is shutting down (HTTP 503).
	ErrClosed = errors.New("store closed")
)

// Job is one submitted simulation job. All mutable state is behind mu;
// the exported identity fields are immutable after Submit.
type Job struct {
	ID   string
	Key  string
	Spec JobSpec

	ctx    context.Context
	cancel context.CancelFunc
	log    *eventLog

	mu       sync.Mutex
	status   Status
	cacheHit bool
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	result   json.RawMessage
}

// JobView is the JSON form of a job's state returned by the API.
type JobView struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	Spec       JobSpec         `json:"spec"`
	Key        string          `json:"key"`
	Status     Status          `json:"status"`
	CacheHit   bool            `json:"cache_hit"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job for the API layer.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		Spec:      j.Spec,
		Key:       j.Key,
		Status:    j.status,
		CacheHit:  j.cacheHit,
		CreatedAt: j.created,
		Error:     j.errMsg,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Events returns the job's event log at or after seq `from`, whether the
// log is complete, and a channel that closes when more events arrive.
func (j *Job) Events(from int) (evs []Event, done bool, changed <-chan struct{}) {
	return j.log.snapshot(from)
}

// begin transitions queued → running; false if the job was canceled
// while waiting in the queue.
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// Options configures a Store.
type Options struct {
	// Workers is the number of concurrent job executors (default
	// min(4, GOMAXPROCS): jobs are themselves internally parallel).
	Workers int
	// QueueDepth bounds the FIFO of jobs waiting for a worker
	// (default 16). Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// SweepWorkers bounds the per-job workload fan-out of sweep jobs
	// (default GOMAXPROCS).
	SweepWorkers int
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = min(4, runtime.GOMAXPROCS(0))
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = runtime.GOMAXPROCS(0)
	}
}

// Store is the job engine: bounded queue, worker pool, job registry, and
// content-addressed result cache.
type Store struct {
	cfg        config.Machine
	opt        Options
	rootCtx    context.Context
	rootCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup
	metrics    metrics

	mu     sync.Mutex
	closed bool
	seq    int
	jobs   map[string]*Job
	cache  map[string]json.RawMessage
}

// New creates a Store and starts its worker pool.
func New(cfg config.Machine, opt Options) *Store {
	opt.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Store{
		cfg:        cfg,
		opt:        opt,
		rootCtx:    ctx,
		rootCancel: cancel,
		queue:      make(chan *Job, opt.QueueDepth),
		jobs:       make(map[string]*Job),
		cache:      make(map[string]json.RawMessage),
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates, registers, and enqueues a job. A job whose content
// key is already cached completes immediately (CacheHit true) without
// occupying a queue slot. Errors: ErrInvalidSpec (wrapped), ErrQueueFull,
// ErrClosed.
func (s *Store) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	key, err := spec.Key(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("hash spec: %w", err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.seq++
	jctx, jcancel := context.WithCancel(s.rootCtx)
	j := &Job{
		ID:      fmt.Sprintf("j-%06d", s.seq),
		Key:     key,
		Spec:    spec,
		ctx:     jctx,
		cancel:  jcancel,
		log:     newEventLog(),
		status:  StatusQueued,
		created: time.Now(),
	}
	cached, hit := s.cache[key]
	if !hit {
		// Count the job before a worker can see it (its jobStarted must
		// find it counted), then reserve a queue slot before publishing
		// it: a full queue rejects the submission without leaking a
		// registry entry or a count.
		s.metrics.jobSubmitted(true)
		select {
		case s.queue <- j:
		default:
			s.metrics.jobRejected()
			s.mu.Unlock()
			jcancel()
			return nil, ErrQueueFull
		}
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()

	j.log.append(EventQueued, map[string]string{"id": j.ID, "key": key})
	if hit {
		jcancel()
		j.mu.Lock()
		j.status = StatusDone
		j.cacheHit = true
		now := time.Now()
		j.started, j.finished = now, now
		j.result = cached
		j.mu.Unlock()
		j.log.append(EventCacheHit, map[string]string{"key": key})
		j.log.append(EventDone, nil)
		s.metrics.jobSubmitted(false)
		s.metrics.cacheHit()
		s.metrics.jobFinished("", StatusDone, 0)
		return j, nil
	}
	s.metrics.cacheMiss()
	return j, nil
}

// Get returns a job by ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: a queued job goes terminal immediately; a
// running job's context is cancelled and it goes terminal when the
// simulation reaches its next cancellation boundary. Terminal jobs are
// left untouched. Returns false if the ID is unknown.
func (s *Store) Cancel(id string) (*Job, bool) {
	j, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.finished = time.Now()
		j.errMsg = context.Canceled.Error()
		j.mu.Unlock()
		j.cancel()
		j.log.append(EventCanceled, map[string]string{"reason": "canceled while queued"})
		s.metrics.jobFinished("queued", StatusCanceled, -1)
	case StatusRunning:
		j.mu.Unlock()
		j.cancel()
	default:
		j.mu.Unlock()
	}
	return j, true
}

// Metrics snapshots the service counters for /metrics.
func (s *Store) Metrics() MetricsSnapshot {
	return s.metrics.snapshot()
}

// Close shuts the store down: new submissions fail with ErrClosed, every
// job context is cancelled (running sweeps stop at their next
// per-workload boundary), and Close waits — bounded by ctx — for the
// workers to drain. Queued jobs that never ran finish as canceled.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.rootCancel()
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("store drain: %w", ctx.Err())
	}
}

// worker drains the queue until Close. Jobs cancelled while queued are
// skipped; after shutdown the remaining queued jobs observe their dead
// contexts immediately and finish as canceled.
func (s *Store) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job and drives it to a terminal state.
func (s *Store) runJob(j *Job) {
	if !j.begin() {
		return // canceled while queued
	}
	s.metrics.jobStarted()
	j.log.append(EventStarted, map[string]string{"id": j.ID})

	result, err := s.execute(j)

	j.mu.Lock()
	j.finished = time.Now()
	latencyMs := float64(j.finished.Sub(j.created)) / float64(time.Millisecond)
	var terminal Status
	switch {
	case err == nil:
		terminal = StatusDone
		j.status = StatusDone
		j.result = result
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		terminal = StatusCanceled
		j.status = StatusCanceled
		j.errMsg = err.Error()
	default:
		terminal = StatusFailed
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	j.mu.Unlock()
	j.cancel()

	switch terminal {
	case StatusDone:
		s.mu.Lock()
		s.cache[j.Key] = result
		s.mu.Unlock()
		j.log.append(EventDone, nil)
	case StatusCanceled:
		j.log.append(EventCanceled, map[string]string{"reason": err.Error()})
	case StatusFailed:
		j.log.append(EventFailed, map[string]string{"error": err.Error()})
	}
	s.metrics.jobFinished("running", terminal, latencyMs)
}

package store

import (
	"sort"
	"sync"

	"memento/internal/stats"
)

// maxLatencySamples bounds the latency reservoir; older completions
// rotate out so the percentiles track recent service behavior.
const maxLatencySamples = 1024

// MetricsSnapshot is the /metrics wire form: job counts by state, cache
// effectiveness, and job-latency percentiles (submit → terminal, in
// milliseconds, over completed jobs).
type MetricsSnapshot struct {
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsQueued    uint64 `json:"jobs_queued"`
	JobsRunning   uint64 `json:"jobs_running"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`

	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

// metrics is the store's internal counter set. One mutex is plenty: every
// update is a handful of integer ops on the job state machine's edges.
type metrics struct {
	mu        sync.Mutex
	submitted uint64
	queued    uint64
	running   uint64
	done      uint64
	failed    uint64
	canceled  uint64
	hits      uint64
	misses    uint64
	latencies []float64 // ms, ring of the last maxLatencySamples
	latNext   int
	latFull   bool
}

func (m *metrics) jobSubmitted(queued bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
	if queued {
		m.queued++
	}
}

// jobRejected undoes jobSubmitted(true) for a job the full queue refused.
func (m *metrics) jobRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted--
	m.queued--
}

func (m *metrics) cacheHit()  { m.mu.Lock(); m.hits++; m.mu.Unlock() }
func (m *metrics) cacheMiss() { m.mu.Lock(); m.misses++; m.mu.Unlock() }

func (m *metrics) jobStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queued > 0 {
		m.queued--
	}
	m.running++
}

// jobFinished moves one job out of `from` ("queued" or "running") into its
// terminal counter and records its wall latency.
func (m *metrics) jobFinished(from string, terminal Status, latencyMs float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch from {
	case "queued":
		if m.queued > 0 {
			m.queued--
		}
	case "running":
		if m.running > 0 {
			m.running--
		}
	}
	switch terminal {
	case StatusDone:
		m.done++
	case StatusFailed:
		m.failed++
	case StatusCanceled:
		m.canceled++
	}
	if terminal == StatusDone && latencyMs >= 0 {
		if m.latFull || len(m.latencies) == maxLatencySamples {
			m.latencies[m.latNext] = latencyMs
			m.latFull = true
		} else {
			m.latencies = append(m.latencies, latencyMs)
		}
		m.latNext = (m.latNext + 1) % maxLatencySamples
	}
}

func (m *metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MetricsSnapshot{
		JobsSubmitted: m.submitted,
		JobsQueued:    m.queued,
		JobsRunning:   m.running,
		JobsDone:      m.done,
		JobsFailed:    m.failed,
		JobsCanceled:  m.canceled,
		CacheHits:     m.hits,
		CacheMisses:   m.misses,
	}
	if total := m.hits + m.misses; total > 0 {
		s.CacheHitRate = float64(m.hits) / float64(total)
	}
	if len(m.latencies) > 0 {
		sorted := append([]float64(nil), m.latencies...)
		sort.Float64s(sorted)
		s.LatencyP50Ms = stats.Percentile(sorted, 0.50)
		s.LatencyP99Ms = stats.Percentile(sorted, 0.99)
	}
	return s
}

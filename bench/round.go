package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// roundResult is what one round reports to the parent process, as one JSON
// object on the child's standard output.
type roundResult struct {
	// SetupDone is the wall-clock time (Unix ns) the timed phase began;
	// the parent subtracts the child's spawn time from it to get setup_s.
	SetupDone int64 `json:"setup_done_unix_ns"`
	// OpMs holds one wall-clock sample per operation, in milliseconds, and
	// RefMs the reference's time (see referenceMs) measured with each.
	OpMs  []float64 `json:"op_ms"`
	RefMs []float64 `json:"ref_ms"`
	// CPUMsPerOp is the worker process's CPU time over the timed phase,
	// less the reference's, divided by the operations it completed.
	CPUMsPerOp float64 `json:"cpu_ms_per_op"`
	// PeakRSSMB is the worker process's VmHWM at the end of the round.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Attempted and Failed count checked operations and those that failed
	// or produced a wrong output; Problems describes the first failures.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Layer holds the workload's per-layer counters (ratios, sizes).
	Layer map[string]float64 `json:"layer,omitempty"`
	// Samples holds further per-item samples (daemon phase timings) that
	// the parent pools across rounds before taking percentiles.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Traced rounds only: the CPU profile of the timed phase, and the
	// calibration pass (its metrics, simulated-operation counts and
	// profile).
	Profile    string             `json:"profile,omitempty"`
	Cal        map[string]float64 `json:"cal,omitempty"`
	CalProfile string             `json:"cal_profile,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

// refMs returns the reference's time measured with operation i, or 0
// when there is none.
func (r roundResult) refMs(i int) float64 {
	if i < len(r.RefMs) {
		return r.RefMs[i]
	}
	return 0
}

// scaledOpMs returns the operations' times scaled to the reference speed.
func (r roundResult) scaledOpMs() []float64 {
	out := make([]float64, len(r.OpMs))
	for i, t := range r.OpMs {
		out[i] = atRefSpeed(t, r.refMs(i))
	}
	return out
}

// span is one traced call from the benchmark into a layer. Times are
// nanoseconds since the round began; Req groups the spans of one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxProblems bounds how many failure descriptions a round keeps.
const maxProblems = 8

// round is one repetition of a workload in a fresh process: set-up, then a
// timed phase that runs the workload's operations until the budget is
// spent.
type round struct {
	seed   int64
	index  int
	budget time.Duration
	// toy shrinks every workload to smoke-test size.
	toy bool
	// traced rounds record spans, profile the timed phase and run the
	// calibration pass; their CPU profiles go to dir.
	traced bool
	dir    string
	name   string
	// daemon starts the service the daemon workloads load, with its
	// profiling endpoint when asked.
	daemon func(pprof bool) (daemon, error)

	t0     time.Time
	begun  time.Time
	cpu0   time.Duration
	alloc0 uint64
	prof   *os.File

	mu  sync.Mutex
	res roundResult
}

func newRound(name string, seed int64, index int, budget time.Duration) *round {
	return &round{name: name, seed: seed, index: index, budget: budget, t0: time.Now()}
}

// fail records a failed operation.
func (r *round) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Failed++
	if len(r.res.Problems) < maxProblems {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *round) attempt(n int) {
	r.mu.Lock()
	r.res.Attempted += n
	r.mu.Unlock()
}

func (r *round) setLayer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.Layer == nil {
		r.res.Layer = map[string]float64{}
	}
	r.res.Layer[name] = v
}

func (r *round) addSample(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.Samples == nil {
		r.res.Samples = map[string][]float64{}
	}
	r.res.Samples[name] = append(r.res.Samples[name], v)
}

// beginSpan opens a span when the round is traced and returns its id (-1
// when it is not, which endSpan ignores).
func (r *round) beginSpan(name string, parent int, req string) int {
	if !r.traced {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.res.Spans)
	r.res.Spans = append(r.res.Spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *round) endSpan(id int) {
	if id < 0 {
		return
	}
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.res.Spans[id].End = end
	r.mu.Unlock()
}

// addSpan records a span whose times were measured elsewhere (the daemon's
// job timestamps).
func (r *round) addSpan(name string, parent int, req string, start, end time.Time) int {
	if !r.traced {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.res.Spans)
	r.res.Spans = append(r.res.Spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// markSetupDone ends the set-up phase.
func (r *round) markSetupDone() {
	r.begun = time.Now()
	r.res.SetupDone = r.begun.UnixNano()
}

// begin ends set-up and starts metering this process: CPU time, heap
// allocation and, in a traced round, a CPU profile.
func (r *round) begin() error {
	r.markSetupDone()
	r.cpu0 = processCPU()
	r.alloc0 = heapAllocBytes()
	if r.traced {
		path := filepath.Join(r.dir, fmt.Sprintf("%s-round%d.pprof", r.name, r.index))
		f, err := startProfile(path)
		if err != nil {
			return err
		}
		r.prof, r.res.Profile = f, path
	}
	return nil
}

// end stops metering after ops operations.
func (r *round) end(ops int) error {
	var refMs float64
	for _, v := range r.res.RefMs {
		refMs += v
	}
	// The reference runs on one thread without blocking, so its CPU time
	// is its wall time.
	cpu := ms(processCPU()-r.cpu0) - refMs
	alloc := heapAllocBytes() - r.alloc0
	if r.prof != nil {
		if err := stopProfile(r.prof); err != nil {
			return err
		}
		r.prof = nil
	}
	r.res.CPUMsPerOp = cpu / float64(ops)
	r.setLayer("runtime.alloc_kb_per_op", float64(alloc)/1024/float64(ops))
	return nil
}

// repeat runs op back to back until the budget is spent, at least once,
// timing each call. Garbage from the previous call is collected, and the
// reference timed, before the next one starts, outside its timer.
func (r *round) repeat(op func() error) error {
	if err := r.begin(); err != nil {
		return err
	}
	n := 0
	for n == 0 || time.Since(r.begun) < r.budget {
		runtime.GC()
		ref := referenceMs()
		t := time.Now()
		err := op()
		r.res.OpMs = append(r.res.OpMs, ms(time.Since(t)))
		r.res.RefMs = append(r.res.RefMs, ref)
		n++
		if err != nil {
			return err
		}
	}
	return r.end(n)
}

// finish records the process's peak RSS and returns the result.
func (r *round) finish() (roundResult, error) {
	if r.res.PeakRSSMB == 0 {
		rss, err := peakRSSMB("self")
		if err != nil {
			return roundResult{}, err
		}
		r.res.PeakRSSMB = rss
	}
	return r.res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU returns the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes returns the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads VmHWM of a process ("self" or a pid) from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func startProfile(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func stopProfile(f *os.File) error {
	pprof.StopCPUProfile()
	return f.Close()
}

package memento

import (
	"io"

	"memento/internal/experiments"
	"memento/internal/machine"
	"memento/internal/telemetry"
)

// Telemetry types, re-exported so callers never import internal packages.
type (
	// Probe receives per-event and per-component telemetry during a run.
	// See the internal/telemetry package documentation for the hook
	// contract; NopProbe and CountingProbe are ready-made implementations.
	Probe = telemetry.Probe
	// ProbeEvent is one completed simulation step as seen by a Probe.
	ProbeEvent = telemetry.Event
	// ProbeCounter identifies one component operation reported to a Probe.
	ProbeCounter = telemetry.Counter
	// NopProbe is a Probe that does nothing (the overhead baseline).
	NopProbe = telemetry.Nop
	// CountingProbe accumulates event, bucket, and operation totals.
	CountingProbe = telemetry.Counters
	// Timeline is the interval counter recording of one run.
	Timeline = telemetry.Timeline
	// TimelineSample is one Timeline observation.
	TimelineSample = telemetry.Sample
	// RunRecord is the stable machine-readable form of one run.
	RunRecord = telemetry.RunRecord
)

// Runner executes simulations with a fixed configuration and option set.
// Build one with NewRunner and functional options:
//
//	r := memento.NewRunner(cfg,
//		memento.WithStack(memento.Memento),
//		memento.WithTimeline(2000))
//	res, err := r.Run("html")
//
// The zero Runner is usable and runs the baseline stack with defaults.
type Runner struct {
	cfg Config
	opt Options
}

// RunOption configures a Runner.
type RunOption func(*Options)

// WithStack selects the memory-management system under test (Baseline or
// Memento). Compare ignores it and always runs both.
func WithStack(s Stack) RunOption { return func(o *Options) { o.Stack = s } }

// WithColdStart puts container setup on the critical path (Section 6.6).
func WithColdStart() RunOption { return func(o *Options) { o.ColdStart = true } }

// WithMallaccIdeal models the idealized Mallacc of Section 6.7 (baseline
// C++ runs only).
func WithMallaccIdeal() RunOption { return func(o *Options) { o.MallaccIdeal = true } }

// WithMmapPopulate forces MAP_POPULATE on all allocator mmaps (Section 6.6).
func WithMmapPopulate() RunOption { return func(o *Options) { o.MmapPopulate = true } }

// WithProbe attaches a telemetry probe to every run (nil detaches).
func WithProbe(p Probe) RunOption { return func(o *Options) { o.Probe = p } }

// WithWarmStart restores the given post-setup checkpoint (see PrepareWarm)
// at the start of every run instead of simulating setup:
//
//	ws, _ := memento.PrepareWarm(cfg, tr, memento.Options{Stack: memento.Memento})
//	r := memento.NewRunner(cfg, memento.WithStack(memento.Memento), memento.WithWarmStart(ws))
//	res, _ := r.RunTrace(tr) // bit-identical to a cold run, minus setup time
//
// The checkpoint must match the runner's stack and the trace's
// setup-shaping fields; nil reverts to automatic warm-start reuse.
func WithWarmStart(ws *WarmStart) RunOption { return func(o *Options) { o.Warm = ws } }

// WithTimeline samples all simulator counters every n trace events into
// Result.Timeline (n <= 0 disables sampling).
func WithTimeline(n int) RunOption {
	return func(o *Options) {
		if n < 0 {
			n = 0
		}
		o.TimelineInterval = n
	}
}

// NewRunner builds a Runner over cfg with the given options applied in
// order.
func NewRunner(cfg Config, opts ...RunOption) *Runner {
	r := &Runner{cfg: cfg}
	for _, o := range opts {
		o(&r.opt)
	}
	return r
}

// Config returns the runner's machine configuration.
func (r *Runner) Config() Config { return r.cfg }

// Options returns the resolved option set.
func (r *Runner) Options() Options { return r.opt }

// Run executes one named workload on the configured stack.
func (r *Runner) Run(name string) (Result, error) {
	tr, err := GenerateTrace(name)
	if err != nil {
		return Result{}, err
	}
	return r.RunTrace(tr)
}

// RunTrace executes an arbitrary trace on the configured stack. Each run
// gets a fresh machine; repeated runs with the same setup reuse a
// post-setup snapshot (see PrepareWarm and WithWarmStart), which changes
// nothing about the results — warm runs are bit-identical to cold ones.
//
// A single run has no cancellation point: once started it completes
// deterministically. Cancellation takes effect between runs, in the
// sweeps (Suite.All and the studies), which take a context.
func (r *Runner) RunTrace(tr *Trace) (Result, error) {
	return machine.RunWarm(r.cfg, tr, r.opt)
}

// Compare runs a named workload on both stacks (fresh machines, identical
// configuration), regardless of WithStack.
func (r *Runner) Compare(name string) (base, mem Result, err error) {
	tr, err := GenerateTrace(name)
	if err != nil {
		return base, mem, err
	}
	return r.CompareTrace(tr)
}

// CompareTrace runs an arbitrary trace on both stacks.
func (r *Runner) CompareTrace(tr *Trace) (base, mem Result, err error) {
	return machine.RunPair(r.cfg, tr, r.opt)
}

// RunMultiProcess time-shares one core among several traces (the §6.6
// multi-process study) on the configured stack.
func (r *Runner) RunMultiProcess(traces []*Trace, quantumEvents int) ([]Result, error) {
	m, err := machine.New(r.cfg)
	if err != nil {
		return nil, err
	}
	return m.RunMultiProcess(traces, r.opt, quantumEvents)
}

// ExportRuns writes runs as one JSON array of RunRecords (per-bucket
// cycles, component counters, and any recorded timelines).
func ExportRuns(w io.Writer, runs ...Result) error {
	recs := make([]telemetry.RunRecord, len(runs))
	for i, r := range runs {
		recs[i] = r.Record()
	}
	return telemetry.WriteRunsJSON(w, recs)
}

// ExportRunsCSV writes runs as CSV with a stable column set (timelines are
// JSON-only; export them with Result.Timeline.WriteCSV).
func ExportRunsCSV(w io.Writer, runs ...Result) error {
	recs := make([]telemetry.RunRecord, len(runs))
	for i, r := range runs {
		recs[i] = r.Record()
	}
	return telemetry.WriteRunsCSV(w, recs)
}

// ExportExperiments writes experiments in their stable JSON wire form
// (id, title, paper, header, rows, notes).
func ExportExperiments(w io.Writer, exps []Experiment) error {
	return experiments.Export(w, exps)
}

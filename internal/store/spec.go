// Package store is mementod's job engine: a bounded FIFO queue of
// simulation jobs, a worker pool executing them on the same machinery the
// CLIs use (machine.RunWarm, experiments.Suite), a content-addressed
// result cache keyed on a canonical hash of (machine config, job spec),
// and an append-only per-job event log that the API layer streams to
// clients.
//
// Jobs are cancellable: each job runs under a context derived from the
// store's root context, so a client cancel or a daemon shutdown stops a
// sweep at its next per-workload boundary (the cancellation granularity
// the whole Suite → Runner path observes). Only completed results enter
// the cache, and a cancelled sweep never latches the suite's memo, so a
// resubmitted job recomputes cleanly.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"memento/internal/config"
	"memento/internal/workload"
)

// Job kinds accepted by Submit.
const (
	// KindRun simulates one workload on one stack and returns the
	// RunRecord.
	KindRun = "run"
	// KindCompare runs one workload on both stacks and returns both
	// records plus the speedup.
	KindCompare = "compare"
	// KindSweep runs the full experiment suite (the cmd/experiments
	// sweep) and returns every reproduced table.
	KindSweep = "sweep"
	// KindFleet runs the cluster-scheduling study (Fig: fleet) and
	// returns its table.
	KindFleet = "fleet"
)

// ErrInvalidSpec wraps every validation failure from JobSpec.Normalize so
// the API layer can map bad requests to 400 without string matching.
var ErrInvalidSpec = errors.New("invalid job spec")

// JobSpec is the client-facing description of one job. The zero value is
// invalid; Kind is required. Field names are the HTTP wire contract.
type JobSpec struct {
	// Kind selects the job type: run, compare, sweep, or fleet.
	Kind string `json:"kind"`
	// Workload names the benchmark for run/compare jobs (see
	// workload.Profiles).
	Workload string `json:"workload,omitempty"`
	// Stack selects baseline or memento for run jobs (default baseline).
	Stack string `json:"stack,omitempty"`
	// ColdStart prepends container setup (run/compare, Section 6.6).
	ColdStart bool `json:"cold_start,omitempty"`
	// MmapPopulate forces MAP_POPULATE on baseline mmaps (run/compare).
	MmapPopulate bool `json:"mmap_populate,omitempty"`
	// TimelineInterval, when > 0, samples counters every N trace events
	// into the result's timeline and streams each sample as an SSE
	// "sample" event (run/compare).
	TimelineInterval int `json:"timeline_interval,omitempty"`
	// Only filters a sweep to experiments whose ID contains the string
	// (e.g. "fig8", "table2").
	Only string `json:"only,omitempty"`
}

func specErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// resolveWorkload looks a benchmark up by name, case-insensitively, and
// returns its canonical profile ("redis" resolves to "Redis"). The
// canonical name is what gets hashed, so case variants share one cache
// entry.
func resolveWorkload(name string) (workload.Profile, bool) {
	if p, ok := workload.ByName(name); ok {
		return p, true
	}
	for _, p := range workload.Profiles() {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return workload.Profile{}, false
}

// Normalize canonicalizes the spec in place (lower-cases enums, applies
// defaults) and validates it. Canonicalization before hashing is what
// makes the result cache insensitive to cosmetic differences like
// "HTML" vs "html".
func (sp *JobSpec) Normalize() error {
	sp.Kind = strings.ToLower(strings.TrimSpace(sp.Kind))
	sp.Workload = strings.TrimSpace(sp.Workload)
	sp.Stack = strings.ToLower(strings.TrimSpace(sp.Stack))
	sp.Only = strings.TrimSpace(sp.Only)

	switch sp.Kind {
	case KindRun, KindCompare:
		if sp.Workload == "" {
			return specErrf("%s job requires a workload", sp.Kind)
		}
		prof, ok := resolveWorkload(sp.Workload)
		if !ok {
			return specErrf("unknown workload %q", sp.Workload)
		}
		sp.Workload = prof.Name
		if sp.TimelineInterval < 0 {
			return specErrf("timeline_interval must be >= 0")
		}
		if sp.Only != "" {
			return specErrf("only applies to sweep jobs")
		}
		switch sp.Kind {
		case KindRun:
			if sp.Stack == "" {
				sp.Stack = "baseline"
			}
			if sp.Stack != "baseline" && sp.Stack != "memento" {
				return specErrf("unknown stack %q (want baseline or memento)", sp.Stack)
			}
		case KindCompare:
			if sp.Stack != "" {
				return specErrf("compare runs both stacks; omit stack")
			}
		}
	case KindSweep, KindFleet:
		if sp.Workload != "" || sp.Stack != "" {
			return specErrf("%s job runs all workloads; omit workload/stack", sp.Kind)
		}
		if sp.ColdStart || sp.MmapPopulate || sp.TimelineInterval != 0 {
			return specErrf("cold_start/mmap_populate/timeline_interval apply to run and compare jobs")
		}
		if sp.Only != "" && sp.Kind == KindFleet {
			return specErrf("only applies to sweep jobs")
		}
		// Key's JSON encoding turns every invalid byte into U+FFFD, so two
		// such filters would share one cache entry.
		if !utf8.ValidString(sp.Only) {
			return specErrf("only %q is not valid UTF-8", sp.Only)
		}
	case "":
		return specErrf("kind is required (run, compare, sweep, or fleet)")
	default:
		return specErrf("unknown kind %q (want run, compare, sweep, or fleet)", sp.Kind)
	}
	return nil
}

// keyEnvelope is the hashed form of a job identity. The version bumps
// whenever the execution semantics of an unchanged spec change, so stale
// cache entries can never be served across an incompatible upgrade.
type keyEnvelope struct {
	Version int            `json:"v"`
	Config  config.Machine `json:"config"`
	Spec    JobSpec        `json:"spec"`
}

// Key returns the content address of the job's result: a hex sha256 over
// the canonical JSON of (version, machine config, normalized spec).
// Identical jobs on an identical machine hash identically, so a
// resubmitted job is served from the result cache without simulating.
func (sp JobSpec) Key(cfg config.Machine) (string, error) {
	raw, err := json.Marshal(keyEnvelope{Version: 1, Config: cfg, Spec: sp})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

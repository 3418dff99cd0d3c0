package experiments_test

import (
	"context"
	"errors"
	"testing"

	"memento/internal/config"
	"memento/internal/experiments"
	"memento/internal/validate"
)

// TestAllContextCancelled: every ctx-first sweep surfaces the context
// error when handed a dead context, and none of them latches a memo — the
// same suite completes its workload sweep afterwards.
func TestAllContextCancelled(t *testing.T) {
	s := experiments.NewSuite(config.Default(), experiments.WithWorkers(2))
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"Suite.All", func(ctx context.Context) error { _, err := s.All(ctx); return err }},
		{"WarmStarts", func(ctx context.Context) error { _, err := experiments.WarmStarts(ctx, s); return err }},
		{"WarmBytes", func(ctx context.Context) error { _, err := experiments.WarmBytes(ctx, s); return err }},
		{"FleetStudy", func(ctx context.Context) error { _, err := experiments.FleetStudy(ctx, s); return err }},
		{"validate.Run", func(ctx context.Context) error { _, err := validate.Run(ctx, s); return err }},
	} {
		if err := tc.run(dead); !errors.Is(err, context.Canceled) {
			t.Errorf("%s = %v, want context.Canceled", tc.name, err)
		}
	}
	// Still reusable afterwards — but don't run the whole evaluation
	// here; the base sweep succeeding is the reuse signal.
	if pairs, err := s.Pairs(); err != nil || len(pairs) == 0 {
		t.Fatalf("Pairs after cancelled sweeps: %d pairs, err %v", len(pairs), err)
	}
}

package experiments

import (
	"context"
	"errors"
	"testing"
)

// TestPairsContextCancelDoesNotLatch pins the mementod cancellation
// contract: a cancelled sweep returns context.Canceled, does NOT latch
// the suite's memo, and the same suite completes normally afterwards.
func TestPairsContextCancelDoesNotLatch(t *testing.T) {
	p := secondSuite()
	if !errors.Is(p.deadErr, context.Canceled) {
		t.Fatalf("PairsContext on dead ctx = %v, want context.Canceled", p.deadErr)
	}
	s := p.s

	// The suite must still be reusable: a fresh call runs the sweep.
	pairs, err := s.Pairs()
	if err != nil {
		t.Fatalf("Pairs after cancelled attempt: %v", err)
	}
	if len(pairs) == 0 {
		t.Fatal("Pairs after cancelled attempt returned no workloads")
	}

	// And the completed sweep memoizes: the memo survives a later dead
	// context because nothing needs recomputing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	again, err := s.PairsContext(ctx2)
	if err != nil {
		t.Fatalf("PairsContext after completion: %v", err)
	}
	if len(again) != len(pairs) {
		t.Fatalf("memoized pairs changed: %d vs %d", len(again), len(pairs))
	}
}

// TestColdAndMallaccCancelDoesNotLatch covers the two derived memos the
// same way: cancellation surfaces context.Canceled and leaves the memo
// unlatched for the next caller.
func TestColdAndMallaccCancelDoesNotLatch(t *testing.T) {
	// Complete the base sweep first so only the derived runs remain.
	if _, err := sharedSuite.Pairs(); err != nil {
		t.Fatal(err)
	}

	coldErr, mallaccErr := sharedDeadDerived()
	if !errors.Is(coldErr, context.Canceled) {
		t.Fatalf("ColdStartsContext = %v, want context.Canceled", coldErr)
	}
	if runs, err := sharedSuite.ColdStarts(); err != nil || len(runs) == 0 {
		t.Fatalf("ColdStarts after cancelled attempt: %d runs, err %v", len(runs), err)
	}

	if !errors.Is(mallaccErr, context.Canceled) {
		t.Fatalf("MallaccRunsContext = %v, want context.Canceled", mallaccErr)
	}
	if runs, err := sharedSuite.MallaccRuns(); err != nil || len(runs) == 0 {
		t.Fatalf("MallaccRuns after cancelled attempt: %d runs, err %v", len(runs), err)
	}
}

// TestWithProgressStreamsExperiments: All reports each finished
// experiment through the progress hook, in emission order, exactly the
// set it returns — the hook mementod's sweep jobs stream over SSE.
func TestWithProgressStreamsExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep")
	}
	// sharedSuite carries the recording hook; sharedAll is its one All.
	exps, err := sharedAll()
	if err != nil {
		t.Fatal(err)
	}
	got := sharedProgress
	if len(got) != len(exps) {
		t.Fatalf("progress saw %d experiments, All returned %d", len(got), len(exps))
	}
	for i, e := range exps {
		if got[i] != e.ID {
			t.Errorf("progress[%d] = %s, want %s", i, got[i], e.ID)
		}
	}
}

// TestMidSweepCancel cancels while the fan-out is actually running and
// checks the workers wind down and report context.Canceled rather than a
// partial result.
func TestMidSweepCancel(t *testing.T) {
	// secondSuite made the cancelled call; see cancelProbes.
	p := secondSuite()
	s, pairs, err := p.s, p.midPairs, p.midErr
	if err == nil {
		// The sweep may legitimately win the race and complete; then the
		// memo must hold a full result.
		if len(pairs) == 0 {
			t.Fatal("nil error but empty pairs")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel = %v, want context.Canceled", err)
	}
	if _, err := s.Pairs(); err != nil {
		t.Fatalf("suite not reusable after mid-sweep cancel: %v", err)
	}
}

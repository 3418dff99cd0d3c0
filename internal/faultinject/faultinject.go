// Package faultinject provides deterministic fault-injection triggers for
// the simulator's physical-frame allocators. A Hook satisfies
// kernel.AllocHook, the one hook interface that both the kernel's frame
// allocator and the Memento page pool consult, so one value can be threaded
// through the whole stack:
//
//	h := faultinject.FailNth(3)
//	m.SetAllocHook(h) // kernel frame allocs + Memento pool pops
//
// Injected failures surface as errors wrapping both simerr.ErrOutOfMemory
// and simerr.ErrFaultInjected: OOM-handling code cannot tell them from real
// exhaustion, while tests can assert the injector fired with errors.Is and
// Hook.Injected.
//
// Hooks are deterministic — they depend only on the attempt counter and the
// allocator's free-frame count, never on wall-clock time or randomness — so
// a trigger fires at the same simulated event on every run.
package faultinject

// Hook is a fault-injection trigger. The zero value never fires; use the
// constructors. Hooks are not safe for concurrent use, matching the
// single-threaded simulator.
type Hook struct {
	// nth, when non-zero, fires on exactly the nth attempt (1-based).
	nth uint64
	// below, when non-zero, fires on every attempt made while fewer than
	// `below` frames remain free.
	below uint64
	// after, when non-zero, fires on every attempt past the first `after`.
	after uint64

	attempts uint64
	injected uint64
}

// FailNth returns a hook that fails exactly the nth (1-based) frame
// allocation and lets every other one through.
func FailNth(n uint64) *Hook { return &Hook{nth: n} }

// FailBelow returns a hook that fails every frame allocation attempted
// while fewer than k frames remain free — an early-exhaustion horizon that
// models an operator-configured reserve.
func FailBelow(k uint64) *Hook { return &Hook{below: k} }

// FailAfter returns a hook that lets the first n frame allocations through
// and fails every one after them, pinning the exhaustion point to an exact
// attempt count regardless of machine size.
func FailAfter(n uint64) *Hook { return &Hook{after: n} }

// FailFrameAlloc implements kernel.AllocHook. n is the
// calling allocator's own 1-based attempt counter; free is its current
// free-frame (or pool-depth) count. The built-in triggers count the
// attempts the hook itself observes rather than trusting n: one hook
// threaded through both the kernel and the Memento page allocator sees a
// single merged sequence, and the count restarts with each hook instead of
// carrying over allocator state from earlier runs on a reused machine.
func (h *Hook) FailFrameAlloc(n, free uint64) bool {
	_ = n
	h.attempts++
	fire := (h.nth != 0 && h.attempts == h.nth) ||
		(h.below != 0 && free < h.below) ||
		(h.after != 0 && h.attempts > h.after)
	if fire {
		h.injected++
	}
	return fire
}

// Attempts returns how many allocation attempts the hook observed.
func (h *Hook) Attempts() uint64 { return h.attempts }

// Injected returns how many attempts the hook vetoed.
func (h *Hook) Injected() uint64 { return h.injected }

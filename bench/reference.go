package main

import "time"

// The host this benchmark runs on is shared, and its speed changes by more
// than the bounds from one minute to the next: on a 2-vCPU KVM guest the
// same simulator work took 1.6 to 1.8 times as long for minutes at a time,
// then sped up again within seconds, with the guest's steal time near zero,
// so the cause is work outside the guest on the same physical cores. No
// amount of repetition inside a ten-second run averages that out. So each
// operation is scaled by the host's speed at that moment: the reference
// work below is timed right before it, and the operation's time is
// multiplied by refNominalMs over the reference's time. The reference is
// the same kind of work as the simulator's hot loop, but the benchmark's
// own code, so no change to the repository moves it.

// refNominalMs is what the reference takes on that guest when its cores are
// not contended; a scaled time reads as milliseconds on such a host.
const refNominalMs = 55

// refSink keeps the compiler from discarding the reference work.
var refSink uint64

// referenceMs times one pass of the reference work: 1.5M accesses of a
// pseudo-random address stream with locality to a two-level set-associative
// LRU cache model (64 and 1024 sets of 8 ways of 64-byte lines).
func referenceMs() float64 {
	type line struct{ tag, lru uint64 }
	var l1 [64][8]line
	var l2 [1024][8]line
	// lookup reports whether ln is in set s, and otherwise fills it in
	// place of the least recently used way.
	lookup := func(s *[8]line, ln, clock uint64) bool {
		victim := 0
		for w := range s {
			if s[w].tag == ln {
				s[w].lru = clock
				return true
			}
			if s[w].lru < s[victim].lru {
				victim = w
			}
		}
		s[victim] = line{ln, clock}
		return false
	}
	t := time.Now()
	x := uint64(88172645463325252)
	var hits uint64
	for clock := uint64(1); clock <= 1_500_000; clock++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x & 0xffffff
		if x&3 != 0 {
			addr &= 0x3fff // three accesses in four stay within 16 KiB
		}
		ln := addr>>6 + 1 // tag 0 marks an empty way
		if lookup(&l1[ln&63], ln, clock) {
			hits++
		} else if lookup(&l2[ln&1023], ln, clock) {
			hits++
		}
	}
	refSink += hits
	return ms(time.Since(t))
}

// atRefSpeed returns a time t measured when the reference took refMs,
// scaled to the nominal host speed; without a reference reading it
// returns t.
func atRefSpeed(t, refMs float64) float64 {
	if refMs <= 0 {
		return t
	}
	return t * refNominalMs / refMs
}

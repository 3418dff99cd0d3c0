// Package dram models main memory timing and traffic in the style of
// DRAMSim3, reduced to the features the Memento evaluation depends on:
// per-bank row buffers (hit vs. miss latency), a simple bank-queueing
// penalty, and byte-accurate read/write traffic accounting used by the
// memory-bandwidth results (Fig 10).
package dram

import (
	"fmt"

	"memento/internal/config"
	"memento/internal/delta"
	"memento/internal/telemetry"
)

// Stats accumulates DRAM activity.
type Stats struct {
	// Reads and Writes count line-granularity accesses.
	Reads  uint64
	Writes uint64
	// ReadBytes and WriteBytes count the traffic in bytes.
	ReadBytes  uint64
	WriteBytes uint64
	// RowHits and RowMisses classify accesses by row-buffer outcome.
	RowHits   uint64
	RowMisses uint64
	// BusyCycles is the summed access latency, a proxy for occupancy.
	BusyCycles uint64
}

// Sub returns the field-wise difference s - o: the activity between two
// snapshots. Arithmetic wraps (uint64 modular), so sums of deltas match the
// cumulative counters exactly.
func (s Stats) Sub(o Stats) Stats {
	s.Reads -= o.Reads
	s.Writes -= o.Writes
	s.ReadBytes -= o.ReadBytes
	s.WriteBytes -= o.WriteBytes
	s.RowHits -= o.RowHits
	s.RowMisses -= o.RowMisses
	s.BusyCycles -= o.BusyCycles
	return s
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.BusyCycles += o.BusyCycles
	return s
}

// TotalBytes returns read + write traffic.
func (s Stats) TotalBytes() uint64 { return s.ReadBytes + s.WriteBytes }

// TotalAccesses returns read + write access counts.
func (s Stats) TotalAccesses() uint64 { return s.Reads + s.Writes }

// Counters returns the stats in their stable telemetry wire form.
func (s Stats) Counters() telemetry.DRAMCounters {
	return telemetry.DRAMCounters{
		Reads:      s.Reads,
		Writes:     s.Writes,
		ReadBytes:  s.ReadBytes,
		WriteBytes: s.WriteBytes,
		RowHits:    s.RowHits,
		RowMisses:  s.RowMisses,
		BusyCycles: s.BusyCycles,
	}
}

// RowHitRate returns the row-buffer hit rate in [0,1].
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// DRAM is the main-memory timing model. It is not safe for concurrent use;
// the simulator is single-goroutine per machine.
type DRAM struct {
	cfg config.DRAMConfig
	// openRow tracks the open row per bank; -1 means closed. It is one
	// delta block: every access marks it (see snapshot.go).
	openRow delta.Array[int64, Snapshot]
	// lastBank is used for the consecutive-same-bank queue penalty.
	lastBank    int
	bankStreak  uint64
	stats       Stats
	rowsPerBank uint64
	// pow2 geometry fast path: when RowBytes and Banks are both powers of
	// two (the Table 3 defaults are), address decoding is two shifts and a
	// mask instead of three integer divisions per access.
	pow2      bool
	rowShift  uint
	bankMask  uint64
	bankShift uint
	// probe, when non-nil, is notified of every access (observation only).
	// probed caches the attachment state so the per-access hot path tests
	// one byte instead of an interface against nil.
	probe  telemetry.Probe
	probed bool
}

// SetProbe attaches a telemetry probe (nil detaches).
func (d *DRAM) SetProbe(p telemetry.Probe) {
	d.probe = p
	d.probed = p != nil
}

// New creates a DRAM model from configuration.
func New(cfg config.DRAMConfig) *DRAM {
	if cfg.Banks <= 0 || cfg.RowBytes <= 0 {
		panic(fmt.Sprintf("dram: invalid geometry banks=%d rowBytes=%d", cfg.Banks, cfg.RowBytes))
	}
	d := &DRAM{
		cfg:      cfg,
		openRow:  delta.New[int64, Snapshot](cfg.Banks, cfg.Banks),
		lastBank: -1,
	}
	for i := range d.openRow.Live {
		d.openRow.Live[i] = -1
	}
	if isPow2(cfg.RowBytes) && isPow2(cfg.Banks) {
		d.pow2 = true
		d.rowShift = uint(config.Log2(cfg.RowBytes))
		d.bankMask = uint64(cfg.Banks - 1)
		d.bankShift = uint(config.Log2(cfg.Banks))
	}
	return d
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// bankAndRow decodes the physical address using row-interleaved banking:
// consecutive rows map to consecutive banks, which is what commodity
// controllers do to spread streams.
func (d *DRAM) bankAndRow(pa uint64) (bank int, row int64) {
	if d.pow2 {
		rowIdx := pa >> d.rowShift
		return int(rowIdx & d.bankMask), int64(rowIdx >> d.bankShift)
	}
	rowIdx := pa / uint64(d.cfg.RowBytes)
	bank = int(rowIdx % uint64(d.cfg.Banks))
	row = int64(rowIdx / uint64(d.cfg.Banks))
	return bank, row
}

// access performs the shared timing path for reads and writes.
func (d *DRAM) access(pa uint64) uint64 {
	d.openRow.Mark(0)
	bank, row := d.bankAndRow(pa)
	var lat uint64
	if d.openRow.Live[bank] == row {
		lat = d.cfg.RowHitCycles
		d.stats.RowHits++
	} else {
		lat = d.cfg.RowMissCycles
		d.stats.RowMisses++
		d.openRow.Live[bank] = row
	}
	if bank == d.lastBank {
		d.bankStreak++
		lat += d.cfg.QueueCyclesPerPending * min64(d.bankStreak, 4)
	} else {
		d.bankStreak = 0
		d.lastBank = bank
	}
	d.stats.BusyCycles += lat
	return lat
}

// Read fetches one cache line and returns its latency in cycles.
func (d *DRAM) Read(pa uint64) uint64 {
	lat := d.access(pa)
	d.stats.Reads++
	d.stats.ReadBytes += config.LineSize
	if d.probed {
		d.probe.Count(telemetry.CtrDRAMRead, 1, lat)
	}
	return lat
}

// Write writes back one cache line and returns its latency in cycles.
// Writebacks are posted in real controllers; we charge a small fraction of
// the access latency on the critical path but account full traffic.
func (d *DRAM) Write(pa uint64) uint64 {
	lat := d.access(pa)
	d.stats.Writes++
	d.stats.WriteBytes += config.LineSize
	lat /= 4 // posted write: mostly off the critical path
	if d.probed {
		d.probe.Count(telemetry.CtrDRAMWrite, 1, lat)
	}
	return lat
}

// WriteRun writes back the n consecutive lines from pa on, exactly as n
// Write calls in address order would, and returns the sum of each write's
// latency divided by div (each divided on its own, as a caller dividing
// every Write would). A run within one row of one bank — a page always is
// with Table 3's 8 KiB rows — decodes its address once: the first write
// takes the shared timing path, the rest are row hits on the bank the first
// opened, each one deeper in its queue streak. Past a depth of 4 the queue
// penalty, and so the latency, is constant, so the rest are summed in one
// step. Runs across rows, and every run while a probe (which sees each
// write) is attached, are written line by line.
func (d *DRAM) WriteRun(pa, n, div uint64) uint64 {
	if n == 0 {
		return 0
	}
	bank, row := d.bankAndRow(pa)
	if lb, lr := d.bankAndRow(pa + (n-1)*config.LineSize); d.probed || lb != bank || lr != row {
		var cycles uint64
		for i := uint64(0); i < n; i++ {
			cycles += d.Write(pa+i*config.LineSize) / div
		}
		return cycles
	}
	cycles := d.access(pa) / 4 / div
	rest := n - 1
	for ; rest > 0 && d.bankStreak < 4; rest-- {
		d.bankStreak++
		lat := d.cfg.RowHitCycles + d.cfg.QueueCyclesPerPending*d.bankStreak
		d.stats.BusyCycles += lat
		cycles += lat / 4 / div
	}
	lat := d.cfg.RowHitCycles + d.cfg.QueueCyclesPerPending*4
	d.bankStreak += rest
	d.stats.BusyCycles += rest * lat
	cycles += rest * (lat / 4 / div)
	d.stats.RowHits += n - 1
	d.stats.Writes += n
	d.stats.WriteBytes += n * config.LineSize
	return cycles
}

// Stats returns a copy of the accumulated statistics.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the statistics but keeps row-buffer state.
func (d *DRAM) ResetStats() {
	d.stats = Stats{}
	d.openRow.Touch()
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

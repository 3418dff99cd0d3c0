package dram

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"memento/internal/config"
	"memento/internal/telemetry"
)

func testDRAM() *DRAM {
	return New(config.Default().DRAM)
}

func TestRowBufferHit(t *testing.T) {
	d := testDRAM()
	first := d.Read(0x1000)
	second := d.Read(0x1040) // same row
	if first <= second {
		t.Fatalf("first access (row miss, %d cycles) should cost more than second (row hit, %d cycles)",
			first, second)
	}
	s := d.Stats()
	if s.RowMisses != 1 || s.RowHits != 1 {
		t.Fatalf("row hits/misses = %d/%d, want 1/1", s.RowHits, s.RowMisses)
	}
}

func TestRowConflict(t *testing.T) {
	cfg := config.Default().DRAM
	d := New(cfg)
	d.Read(0)
	// Same bank, different row: rows map to banks round-robin, so the same
	// bank recurs every Banks*RowBytes bytes.
	stride := uint64(cfg.Banks) * uint64(cfg.RowBytes)
	d.Read(stride)
	s := d.Stats()
	if s.RowMisses != 2 {
		t.Fatalf("row misses = %d, want 2 (conflict should close the row)", s.RowMisses)
	}
}

func TestTrafficAccounting(t *testing.T) {
	d := testDRAM()
	d.Read(0)
	d.Read(64)
	d.Write(128)
	s := d.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d, want 2/1", s.Reads, s.Writes)
	}
	if s.ReadBytes != 2*config.LineSize || s.WriteBytes != config.LineSize {
		t.Fatalf("bytes = %d/%d, want %d/%d", s.ReadBytes, s.WriteBytes, 2*config.LineSize, config.LineSize)
	}
	if s.TotalBytes() != 3*config.LineSize {
		t.Fatalf("total = %d", s.TotalBytes())
	}
}

func TestWritesCheaperOnCriticalPath(t *testing.T) {
	d := testDRAM()
	r := d.Read(0x10000)
	d2 := testDRAM()
	w := d2.Write(0x10000)
	if w >= r {
		t.Fatalf("posted write latency %d should be below read latency %d", w, r)
	}
}

func TestResetStats(t *testing.T) {
	d := testDRAM()
	d.Read(0)
	d.ResetStats()
	if d.Stats().TotalAccesses() != 0 {
		t.Fatal("stats should be zero after reset")
	}
}

func TestRowHitRate(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
	s.RowHits, s.RowMisses = 3, 1
	if s.RowHitRate() != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", s.RowHitRate())
	}
}

func TestBankDecodeInRange(t *testing.T) {
	d := testDRAM()
	f := func(pa uint64) bool {
		bank, row := d.bankAndRow(pa % (64 << 30))
		return bank >= 0 && bank < 16 && row >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyAlwaysPositive(t *testing.T) {
	d := testDRAM()
	f := func(pa uint64, write bool) bool {
		pa %= 64 << 30
		var lat uint64
		if write {
			lat = d.Write(pa)
		} else {
			lat = d.Read(pa)
		}
		return lat > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(config.DRAMConfig{Banks: 0, RowBytes: 0})
}

func TestSequentialStreamMostlyRowHits(t *testing.T) {
	d := testDRAM()
	for pa := uint64(0); pa < 1<<20; pa += config.LineSize {
		d.Read(pa)
	}
	s := d.Stats()
	if s.RowHitRate() < 0.9 {
		t.Fatalf("sequential stream row hit rate = %v, want > 0.9", s.RowHitRate())
	}
}

// countLog records every Count a probe receives.
type countLog struct {
	telemetry.Nop
	got [][3]uint64
}

func (l *countLog) Count(c telemetry.Counter, n, cycles uint64) {
	l.got = append(l.got, [3]uint64{uint64(c), n, cycles})
}

// TestWriteRunMatchesWrites checks WriteRun against the Write calls it
// stands for, on Table 3's geometry (a page lies in one row), on rows
// smaller than a page and on a geometry that is not a power of two (runs
// span rows), with and without a probe: every returned sum, counter, open
// row, bank streak and probe event must agree.
func TestWriteRunMatchesWrites(t *testing.T) {
	def := config.Default().DRAM
	small, odd := def, def
	small.RowBytes = 1 << 10
	odd.Banks, odd.RowBytes = 6, 3000
	rng := rand.New(rand.NewSource(1))
	for gi, cfg := range []config.DRAMConfig{def, small, odd} {
		for _, probed := range []bool{false, true} {
			run, lines := New(cfg), New(cfg)
			var runLog, lineLog countLog
			if probed {
				run.SetProbe(&runLog)
				lines.SetProbe(&lineLog)
			}
			for i := 0; i < 400; i++ {
				pa := uint64(rng.Intn(64)) << config.PageShift
				n, div := uint64(rng.Intn(65)), uint64(1+rng.Intn(4))
				if i%3 == 0 {
					// Interleave single accesses so runs start on open and
					// closed rows and on a bank streak.
					lines.Read(pa)
					run.Read(pa)
				}
				var want uint64
				for j := uint64(0); j < n; j++ {
					want += lines.Write(pa+j*config.LineSize) / div
				}
				if got := run.WriteRun(pa, n, div); got != want {
					t.Fatalf("geometry %d probed=%v: WriteRun(%#x, %d, %d) = %d, writes give %d", gi, probed, pa, n, div, got, want)
				}
				if run.stats != lines.stats || run.openRow.Clean() != lines.openRow.Clean() ||
					run.openRow.Dirty(0) != lines.openRow.Dirty(0) || run.lastBank != lines.lastBank ||
					run.bankStreak != lines.bankStreak || !slices.Equal(run.openRow.Live, lines.openRow.Live) {
					t.Fatalf("geometry %d probed=%v: state diverges after WriteRun(%#x, %d)", gi, probed, pa, n)
				}
			}
			if !reflect.DeepEqual(runLog.got, lineLog.got) {
				t.Fatalf("geometry %d: probe events differ", gi)
			}
		}
	}
}

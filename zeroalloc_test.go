// Allocation regression tests. After warm-up, one demand access
// through each scheme's Access, one DRAM access, one tag-buffer
// lookup/insert and one workload event must not allocate: the schemes
// reuse scratch Op buffers handed back through mc.Result (see the
// ownership note there). Whole runs at the end-to-end and gang-sweep
// benchmarks' configs stay under fixed allocation ceilings. Together
// these pin the hot path so a refactor can't silently reintroduce
// per-access garbage into the simulator's innermost loop.
package banshee_test

import (
	"context"
	"runtime"
	"testing"

	"banshee"
	"banshee/internal/alloy"
	bcore "banshee/internal/banshee"
	"banshee/internal/cameo"
	"banshee/internal/dram"
	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/schemes"
	"banshee/internal/tdc"
	"banshee/internal/trace"
	"banshee/internal/unison"
	"banshee/internal/vm"
)

const allocCapacity = 16 << 20 // 16 MB DRAM cache for the alloc tests

// zeroAfterWarmup calls step warm times, then fails if a further call
// still allocates.
func zeroAfterWarmup(t *testing.T, what string, warm int, step func()) {
	t.Helper()
	for i := 0; i < warm; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Errorf("%s: steady state allocates %v per call, want 0", what, avg)
	}
}

// testZeroAlloc drives scheme s over a skewed mix of reads, writes and
// dirty evictions across `pages` 4 KB pages, with mappings resolved
// through a page table the way the simulator would. The warm-up grows
// scratch buffers and populates metadata, the page table and any
// internal maps to their steady-state working set.
func testZeroAlloc(t *testing.T, s mc.Scheme, pages uint64) {
	t.Helper()
	pt := vm.NewPageTable()
	var i int
	zeroAfterWarmup(t, s.Name()+" Access", 50_000, func() {
		page := (uint64(i) * 2654435761) % pages
		addr := mem.Addr(page<<12 | uint64(i%64)<<6)
		pte := pt.Translate(addr)
		if i%7 == 0 {
			s.Access(mem.Request{Addr: addr, Write: true, Eviction: true, Mapping: pte.Mapping()})
		} else {
			s.Access(mem.Request{Addr: addr, Write: i%3 == 0, Mapping: pte.Mapping()})
		}
		i++
	})
}

func TestBansheeAccessZeroAlloc(t *testing.T) {
	pt := vm.NewPageTable()
	cfg := bcore.DefaultConfig(allocCapacity)
	cfg.Seed = 7
	b := bcore.New(cfg, pt, nil, vm.DefaultCostModel(2700))
	testZeroAlloc(t, b, 32768)
}

func TestAlloyAccessZeroAlloc(t *testing.T) {
	testZeroAlloc(t, alloy.New(alloy.Config{CapacityBytes: allocCapacity, FillProb: 0.1, Seed: 7}), 32768)
}

func TestUnisonAccessZeroAlloc(t *testing.T) {
	testZeroAlloc(t, unison.New(unison.Config{CapacityBytes: allocCapacity, Ways: 4}), 32768)
}

func TestCameoAccessZeroAlloc(t *testing.T) {
	testZeroAlloc(t, cameo.New(cameo.Config{CapacityBytes: allocCapacity}), 32768)
}

func TestTDCAccessZeroAlloc(t *testing.T) {
	testZeroAlloc(t, tdc.New(tdc.Config{CapacityBytes: allocCapacity}), 32768)
}

func TestBoundingSchemesZeroAlloc(t *testing.T) {
	testZeroAlloc(t, schemes.NewNoCache(), 4096)
	testZeroAlloc(t, schemes.NewCacheOnly(), 4096)
}

// TestDRAMAccessZeroAlloc scatters reads and writes over 1 GB of one
// in-package channel set, 10 cycles apart.
func TestDRAMAccessZeroAlloc(t *testing.T) {
	d := dram.New(dram.InPackageConfig(2700))
	var i int
	zeroAfterWarmup(t, "DRAM Access", 50_000, func() {
		a := mem.Addr(uint64(i*2654435761) % (1 << 30))
		d.Access(uint64(i)*10, a, 64, i%4 == 0, i%2 == 0)
		i++
	})
}

// TestTagBufferZeroAlloc cycles 4096 pages through a 1024-entry tag
// buffer, draining remaps whenever an insert finds its set full.
func TestTagBufferZeroAlloc(t *testing.T) {
	tb := bcore.NewTagBuffer(1024, 8)
	var i int
	zeroAfterWarmup(t, "TagBuffer", 50_000, func() {
		page := uint64(i) % 4096
		if _, hit := tb.Lookup(page); !hit {
			if !tb.InsertClean(page, true, uint8(i%4)) {
				tb.DrainRemaps()
			}
		}
		i++
	})
}

// TestTraceNextZeroAlloc round-robins pagerank event generation over
// 16 cores.
func TestTraceNextZeroAlloc(t *testing.T) {
	w, err := trace.New("pagerank", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	var i int
	zeroAfterWarmup(t, "trace Next", 50_000, func() {
		w.Next(i % 16)
		i++
	})
}

// TestRunAllocCeilings bounds the allocations of whole runs at the
// end-to-end and gang-sweep benchmarks' configs. Each ceiling is the
// benchmark's last recorded allocs/op plus 20%; the independent arm's
// is per run (its benchmark runs 8 per op). One extra allocation per
// simulated event or access overshoots every ceiling many times over.
func TestRunAllocCeilings(t *testing.T) {
	independent := gangSweepConfig()
	independent.Seed = gangSeeds()[0]
	for _, c := range []struct {
		name, workload, scheme string
		cfg                    banshee.Config
		gang                   bool
		ceiling                uint64
	}{
		{"end_to_end", "mix1", "Banshee", endToEndConfig(1), false, 296},   // 247 × 1.2
		{"gang8", gangWorkload, gangScheme, gangSweepConfig(), true, 1600}, // 1334 × 1.2
		{"independent", gangWorkload, gangScheme, independent, false, 371}, // 2476 / 8 × 1.2
	} {
		t.Run(c.name, func(t *testing.T) {
			// A short run first builds the workload's substrate and
			// every other one-time table, as testing.AllocsPerRun's
			// warm-up call would, without repeating the full run.
			warm := c.cfg
			warm.InstrPerCore = 1_000
			mustRun(t, warm, c.workload, c.scheme)
			got := allocsOf(func() {
				if !c.gang {
					mustRun(t, c.cfg, c.workload, c.scheme)
					return
				}
				g, err := banshee.NewGangSession(c.cfg, c.workload, c.scheme, gangSeeds())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := g.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.ceiling {
				t.Errorf("one run allocates %d times, ceiling %d", got, c.ceiling)
			}
		})
	}
}

// allocsOf counts the heap allocations made during one call of run.
func allocsOf(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

package main

// The replay ladder. vm, cache and dram sit inside sim.System, out of
// reach of any wrapper, so their host cost is measured by replaying
// the streams recorded at the two wrapped boundaries into fresh
// instances of each layer, one layer at a time:
//
//	workload events ─→ TLB/page table
//	                └→ L1 ─(miss/fill stream)→ L2 ─(miss/fill stream)→ L3
//	scheme ops ─→ in-package and off-package DRAM
//
// Each cache level replays the exact op sequence the level below
// produced, so the replayed miss and eviction counts must equal the
// simulated statistics — the ladder checks that before it reports a
// time, which proves it replayed the run's real streams.

import (
	"fmt"
	"time"

	"banshee"
	"banshee/internal/cache"
	"banshee/internal/dram"
	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/vm"
)

// ladderResult is the host time of each replayed layer over the whole
// recorded run, with the counts the replay reproduced.
type ladderResult struct {
	translate, tlb, l1, l2, l3, dram time.Duration
	translates, l1Ops, l2Ops, l3Ops  int
	dramOps                          int
}

// cacheOp is one operation a cache level receives from the level above:
// a demand access or a dirty fill (write-back), tagged with the index of
// the workload event that caused it so counts can be windowed like the
// simulator's statistics.
type cacheOp struct {
	addr  mem.Addr
	event uint32
	core  uint16
	fill  bool
}

// replayLadder replays st (recorded from one run of cfg whose windowed
// statistics are want) through fresh layers, reps times each, keeping
// the fastest repetition of every layer (the replays are deterministic,
// so the minimum is the least disturbed measurement of the same work).
func replayLadder(cfg banshee.Config, st *stream, want stats.Sim, reps int) (ladderResult, error) {
	var best ladderResult
	for r := 0; r < reps; r++ {
		got, err := replayOnce(cfg, st, want)
		if err != nil {
			return ladderResult{}, err
		}
		if r == 0 {
			best = got
			continue
		}
		best.translate = min(best.translate, got.translate)
		best.tlb = min(best.tlb, got.tlb)
		best.l1 = min(best.l1, got.l1)
		best.l2 = min(best.l2, got.l2)
		best.l3 = min(best.l3, got.l3)
		best.dram = min(best.dram, got.dram)
	}
	return best, nil
}

func replayOnce(cfg banshee.Config, st *stream, want stats.Sim) (ladderResult, error) {
	var res ladderResult
	evs := st.events
	cores := cfg.Cores

	// The simulator's statistics window opens after the event whose
	// retirement crosses the warm-up target.
	warmTarget := uint64(float64(cfg.InstrPerCore*uint64(cores)) * cfg.WarmupFrac)
	warmEvent := uint32(0) // first event inside the window
	if warmTarget > 0 {
		var retired uint64
		for i, e := range evs {
			retired += uint64(e.gap) + 1
			if retired >= warmTarget {
				warmEvent = uint32(i + 1)
				break
			}
		}
	}

	// Page table alone: every event's translation on a warm table.
	pt := vm.NewPageTable()
	pt.DefaultLarge = cfg.LargePages
	t0 := time.Now()
	for _, e := range evs {
		pt.Translate(mem.Addr(e.addr))
	}
	res.translate = time.Since(t0)
	res.translates = len(evs)

	// TLBs over a fresh page table: hits are TLB work, misses walk it.
	pt = vm.NewPageTable()
	pt.DefaultLarge = cfg.LargePages
	tlbs := make([]*vm.TLB, cores)
	for i := range tlbs {
		tlbs[i] = vm.NewTLB(cfg.TLBEntries)
	}
	t0 = time.Now()
	for _, e := range evs {
		tlbs[e.core].Lookup(mem.Addr(e.addr), pt)
	}
	res.tlb = time.Since(t0)

	// L1: demand accesses in event order; misses (and the dirty victims
	// they push out) become L2's op stream.
	l1s, l2s := make([]*cache.Cache, cores), make([]*cache.Cache, cores)
	for i := 0; i < cores; i++ {
		l1s[i] = cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways,
			LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: cfg.Seed + uint64(i)})
		l2s[i] = cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways,
			LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: cfg.Seed + uint64(i)})
	}
	l3 := cache.New(cache.Config{Name: "L3", SizeBytes: cfg.L3Bytes, Ways: cfg.L3Ways,
		LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: cfg.Seed})
	// Data lives on 4 KB pages unless the run backs it with large ones;
	// the line's page-size bit is then set on every access.
	meta := uint8(0)
	if cfg.LargePages {
		meta = 1
	}

	var l1Misses, l2Misses, llcMisses, llcEvictions uint64
	toL2 := make([]cacheOp, 0, len(evs)/2)
	t0 = time.Now()
	for i, e := range evs {
		hit, ev := l1s[e.core].Access(mem.Addr(e.addr), e.write, meta)
		if hit {
			continue
		}
		if uint32(i) >= warmEvent {
			l1Misses++
		}
		if ev != nil {
			toL2 = append(toL2, cacheOp{addr: ev.Addr, event: uint32(i), core: e.core, fill: true})
		}
		toL2 = append(toL2, cacheOp{addr: mem.Addr(e.addr), event: uint32(i), core: e.core})
	}
	res.l1 = time.Since(t0)
	res.l1Ops = len(evs)

	toL3 := make([]cacheOp, 0, len(toL2))
	t0 = time.Now()
	for _, op := range toL2 {
		l2 := l2s[op.core]
		if op.fill {
			if ev := l2.Fill(op.addr, true, meta); ev != nil {
				toL3 = append(toL3, cacheOp{addr: ev.Addr, event: op.event, core: op.core, fill: true})
			}
			continue
		}
		hit, ev := l2.Access(op.addr, false, meta)
		if hit {
			continue
		}
		if op.event >= warmEvent {
			l2Misses++
		}
		if ev != nil {
			toL3 = append(toL3, cacheOp{addr: ev.Addr, event: op.event, core: op.core, fill: true})
		}
		toL3 = append(toL3, cacheOp{addr: op.addr, event: op.event, core: op.core})
	}
	res.l2 = time.Since(t0)
	res.l2Ops = len(toL2)

	t0 = time.Now()
	for _, op := range toL3 {
		if op.fill {
			if ev := l3.Fill(op.addr, true, meta); ev != nil && op.event >= warmEvent {
				llcEvictions++
			}
			continue
		}
		hit, ev := l3.Access(op.addr, false, meta)
		if hit {
			continue
		}
		if op.event >= warmEvent {
			llcMisses++
			if ev != nil {
				llcEvictions++
			}
		}
	}
	res.l3 = time.Since(t0)
	res.l3Ops = len(toL3)

	if l1Misses != want.L1Misses || l2Misses != want.L2Misses || llcMisses != want.LLCMisses ||
		llcEvictions != want.LLCEvictions {
		return res, fmt.Errorf("ladder: cache replay diverged from the run: L1/L2/LLC misses, LLC evictions "+
			"%d/%d/%d/%d, simulated %d/%d/%d/%d",
			l1Misses, l2Misses, llcMisses, llcEvictions,
			want.L1Misses, want.L2Misses, want.LLCMisses, want.LLCEvictions)
	}

	// DRAM: the scheme's ops, stage by stage as the memory controller
	// issues them. The replay has no core clocks, so requests are spaced
	// at the run's mean interval between memory-controller accesses; the
	// DRAM model's host cost does not depend on the spacing.
	inCfg, offCfg := dram.InPackageConfig(cfg.CPUMHz), dram.OffPackageConfig(cfg.CPUMHz)
	if cfg.InPkgChannels > 0 {
		inCfg.Channels = cfg.InPkgChannels
	}
	if cfg.InPkgLatScale > 0 {
		inCfg.LatencyScale = cfg.InPkgLatScale
	}
	inPkg, offPkg := dram.New(inCfg), dram.New(offCfg)
	spacing := uint64(1)
	if n := uint64(len(st.accesses)); n > 0 && want.Cycles > 0 {
		spacing = max(1, want.Cycles*4/3/n) // the window is 3/4 of the run
	}
	var inBytes, offBytes stats.Traffic
	var dcHits, dcMisses uint64
	t0 = time.Now()
	for i, a := range st.accesses {
		ops := st.ops[a.firstOp : a.firstOp+uint32(a.nops)]
		now := uint64(i) * spacing
		stageStart := now
		maxStage := uint8(0)
		for _, op := range ops {
			maxStage = max(maxStage, op.Stage)
		}
		for s := uint8(0); s <= maxStage; s++ {
			critEnd := stageStart
			for _, op := range ops {
				if op.Stage != s {
					continue
				}
				d := offPkg
				if op.Target == mem.InPackage {
					d = inPkg
				}
				var done uint64
				if op.Fused {
					done = d.Extend(op.Addr, op.Bytes, op.Write, op.Critical)
				} else {
					done = d.Access(stageStart, op.Addr, op.Bytes, op.Write, op.Critical)
				}
				if op.Critical && done > critEnd {
					critEnd = done
				}
			}
			stageStart = critEnd
		}
	}
	res.dram = time.Since(t0)
	res.dramOps = len(st.ops)

	// Window the replayed traffic like the simulator does and check it.
	for _, a := range st.accesses {
		if a.event <= warmEvent {
			continue
		}
		if !a.eviction {
			if a.hit {
				dcHits++
			} else {
				dcMisses++
			}
		}
		for _, op := range st.ops[a.firstOp : a.firstOp+uint32(a.nops)] {
			if op.Target == mem.InPackage {
				inBytes.Add(op.Class, uint64(op.Bytes))
			} else {
				offBytes.Add(op.Class, uint64(op.Bytes))
			}
		}
	}
	if inBytes != want.InPkg || offBytes != want.OffPkg || dcHits != want.DCHits || dcMisses != want.DCMisses {
		return res, fmt.Errorf("ladder: recorded scheme ops diverge from the run: in/off-package bytes %d/%d, "+
			"DRAM-cache hits/misses %d/%d; simulated %d/%d, %d/%d", inBytes.Total(), offBytes.Total(),
			dcHits, dcMisses, want.InPkg.Total(), want.OffPkg.Total(), want.DCHits, want.DCMisses)
	}
	return res, nil
}

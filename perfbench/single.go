package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"banshee"
	"banshee/internal/stats"
)

// run-banshee-mix1: one Banshee simulation of the multi-programmed mix1
// at the paper's 16 cores, through NewSession/Run — every pipeline
// layer on the independent step path, PTE rewrites and TLB shootdowns
// included, with no runner, gang or service.

func singleConfig(e *env) banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.Cores = e.sizes.SingleCores
	cfg.InstrPerCore = e.sizes.SingleInstr
	cfg.Seed = e.seed
	return cfg
}

// setupSingle times NewSession: workload construction, page table,
// caches, scheme and DRAM models.
func setupSingle(e *env) (time.Duration, error) {
	t0 := time.Now()
	sess, err := banshee.NewSession(singleConfig(e), "mix1", "Banshee")
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, sess.Close()
}

func runSingle(ctx context.Context, e *env) (*report, error) {
	cfg := singleConfig(e)
	var setup float64
	if !e.trace {
		var err error
		if setup, err = measureSetup(ctx, e, "run-banshee-mix1"); err != nil {
			return nil, err
		}
	}
	rec := &recorder{record: e.trace}
	if e.trace {
		active.Store(rec)
		defer active.Store(nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	attempted := 0
	plain, tracedUnits, err := loop(ctx, e, func(i int, tr bool) (unit, error) {
		w, s := "mix1", "Banshee"
		if tr {
			w, s = traced(w), traced(s)
		}
		attempted++
		t0 := time.Now()
		sess, err := banshee.NewSession(cfg, w, s)
		if err != nil {
			return unit{}, err
		}
		res, err := sess.Run(ctx)
		if err != nil {
			return unit{}, err
		}
		wall := time.Since(t0)
		rec.settle()
		e.spans.add("unit", fmt.Sprintf("unit %d", i), 0, t0, t0.Add(wall), "")
		return unit{wall: wall, jobs: 1, instr: cfg.InstrPerCore * uint64(cfg.Cores),
			results: []stats.Sim{res}, key: "mix1"}, nil
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	if !e.trace {
		r := newReport()
		endToEnd(r, plain, setup, attempted, 0)
		r.finish(attempted, 0)
		return r, nil
	}

	r := newLayerReport()
	overhead := timerOverhead()
	boundaryLayers(r, rec, overhead)
	modelLayers(r, modelJobs(plain), cfg.Cores)
	runtimeLayers(r, &before, &after, sumInstr(plain)+sumInstr(tracedUnits))

	// The ladder replays the one recorded run; its boundary times are
	// that run's own, so every layer below covers the same work.
	st := rec.stream
	if st == nil {
		return nil, fmt.Errorf("ladder: no recorded stream")
	}
	t0 := time.Now()
	lad, err := replayLadder(cfg, st, tracedUnits[0].results[0], e.sizes.LadderReps)
	if err != nil {
		return nil, err
	}
	e.spans.add("ladder", "replay", 1, t0, time.Now(), "unit 0")
	srcs, schemes := rec.snapshot()
	instr := float64(tracedUnits[0].instr)
	nextNS := max(0, float64(srcs[0].ns)-float64(srcs[0].calls)*float64(overhead))
	accessNS := max(0, float64(schemes[0].ns)-float64(schemes[0].calls)*float64(overhead))
	perCall := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	r.set("vm.translate_ns", perCall(lad.translate, lad.translates))
	r.set("vm.tlb_lookup_ns", perCall(lad.tlb, len(st.events)))
	r.set("cache.l1_access_ns", perCall(lad.l1, lad.l1Ops))
	r.set("cache.l2_access_ns", perCall(lad.l2, lad.l2Ops))
	r.set("cache.l3_access_ns", perCall(lad.l3, lad.l3Ops))
	r.set("dram.access_ns", perCall(lad.dram, lad.dramOps))

	// Layer sum against the untraced run of the same work. The TLB
	// replay includes the page walks a miss makes, so translate is not
	// added again.
	layers := nextNS + accessNS + float64(lad.tlb+lad.l1+lad.l2+lad.l3+lad.dram)
	e2e := medianWall(plain) * 1e9
	r.set("ladder.coverage", layers/e2e)
	r.set("sim.self_ns_per_instr", (e2e-layers)/instr)
	r.set("trace.overhead_frac", medianWall(tracedUnits)/medianWall(plain)-1)
	r.Samples["units"] = len(plain)
	r.Samples["traced_units"] = len(tracedUnits)
	r.Samples["events_recorded"] = len(st.events)
	r.Tail = reportTail(len(plain))
	r.Digest = digest(modelJobs(plain))
	r.finish(attempted, 0)
	return r, nil
}

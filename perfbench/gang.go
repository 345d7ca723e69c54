package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"banshee"
	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/stats"
)

// sweep-gang-tricount: RunBatch of the gang-safe TDC and Alloy 1 over
// eight seeds of tri_count_kernel, with the workload seed pinned so the
// lanes of each scheme share one front end. The pinned workload seed is
// a constant: the benchmark seed picks the lane seeds, and every seed
// simulates the same graph, so runs on different seeds do the same work. The runner, the gang path,
// the graph substrate and the non-Banshee schemes do the work; the
// Banshee scheme and the independent step path are not run at all.

const (
	gangWorkload     = "tri_count_kernel"
	gangWorkloadSeed = 1
)

var gangSchemes = []string{"TDC", "Alloy 1"}

func gangBase(e *env) banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.Cores = e.sizes.GangCores
	cfg.InstrPerCore = e.sizes.GangInstr
	cfg.Seed = e.seed
	cfg.WorkloadSeed = gangWorkloadSeed
	return cfg
}

// gangSeeds derives the lane seeds from the benchmark seed.
func gangSeeds(e *env) []uint64 {
	seeds := make([]uint64, e.sizes.GangSeeds)
	for i := range seeds {
		seeds[i] = e.seed*1000 + uint64(i) + 1
	}
	return seeds
}

func gangMatrix(e *env, tr bool) banshee.Matrix {
	m := banshee.Matrix{Name: "perfbench-gang", Base: gangBase(e),
		Workloads: []string{gangWorkload}, Schemes: gangSchemes, Seeds: gangSeeds(e)}
	if tr {
		m.Workloads = []string{traced(gangWorkload)}
		m.Schemes = []string{traced(gangSchemes[0]), traced(gangSchemes[1])}
	}
	return m
}

func gangParallelism() int { return min(2, runtime.NumCPU()) }

// setupGang times building the first gang session: workload source with
// its graph substrate (CSR build) and every lane's back end.
func setupGang(e *env) (time.Duration, error) {
	t0 := time.Now()
	g, err := banshee.NewGangSession(gangBase(e), gangWorkload, gangSchemes[0], gangSeeds(e))
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, g.Close()
}

// readSink decodes a checkpoint JSONL file and checks that it holds a
// record for every job exactly once; it returns the statistics in job
// order.
func readSink(data []byte, jobs []banshee.BatchJob) ([]stats.Sim, error) {
	byID := map[string]stats.Sim{}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var r banshee.BatchRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("sink record: %w", err)
		}
		if _, dup := byID[r.ID]; dup {
			return nil, fmt.Errorf("job %s recorded twice", r.ID)
		}
		byID[r.ID] = r.Result
	}
	if len(byID) != len(jobs) {
		return nil, fmt.Errorf("%d records for %d jobs", len(byID), len(jobs))
	}
	out := make([]stats.Sim, len(jobs))
	for i, j := range jobs {
		st, ok := byID[j.ID]
		if !ok {
			return nil, fmt.Errorf("job %s (%s, %s, seed %d) has no record", j.ID, j.Workload, j.Scheme, j.Seed)
		}
		out[i] = st
	}
	return out, nil
}

// sizeWatch polls a file's size and remembers when it last grew: the
// moment the last checkpoint record landed.
type sizeWatch struct {
	stop chan struct{}
	done chan struct{}
	last time.Time
}

func watchSize(path string) *sizeWatch {
	w := &sizeWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var size int64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if fi, err := os.Stat(path); err == nil && fi.Size() != size {
					size, w.last = fi.Size(), time.Now()
				}
			}
		}
	}()
	return w
}

// lastGrowth stops the watch and returns when the file last grew.
func (w *sizeWatch) lastGrowth() time.Time {
	close(w.stop)
	<-w.done
	return w.last
}

func runGang(ctx context.Context, e *env) (*report, error) {
	var setup float64
	if !e.trace {
		var err error
		if setup, err = measureSetup(ctx, e, "sweep-gang-tricount"); err != nil {
			return nil, err
		}
	}
	rec := &recorder{}
	if e.trace {
		active.Store(rec)
		defer active.Store(nil)
	}
	reg := obs.NewRegistry() // engine metrics of the traced batches
	var (
		starts    unitStarts
		flushLags []float64
		busy      time.Duration
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, tracedUnits, err := loop(ctx, e, func(i int, tr bool) (unit, error) {
		m := gangMatrix(e, tr)
		jobs, err := m.Jobs()
		if err != nil {
			return unit{}, err
		}
		out := filepath.Join(e.work, fmt.Sprintf("gang-%d.jsonl", i))
		t0 := time.Now()
		starts = append(starts, t0)
		if !tr {
			_, err = banshee.RunBatch(ctx, m, banshee.BatchOptions{Parallelism: gangParallelism(),
				Out: out, GangWidth: e.sizes.GangSeeds})
		} else {
			// The traced batch is RunBatch's engine with its metrics
			// registry attached, so the runner's own counters are read.
			watch := watchSize(out)
			err = runTracedBatch(ctx, m, out, reg, e.sizes.GangSeeds)
			landed := watch.lastGrowth()
			rec.settle()
			srcs, _ := rec.snapshot()
			var lastClose int64
			for _, s := range srcs {
				if !s.opened.Before(t0) {
					lastClose = max(lastClose, s.closed.Load())
				}
			}
			if lastClose > 0 && !landed.IsZero() {
				flushLags = append(flushLags, float64(landed.UnixNano()-lastClose)/1e9)
			}
		}
		if err != nil {
			return unit{}, err
		}
		wall := time.Since(t0)
		if tr {
			busy += wall
		}
		e.spans.add("unit", fmt.Sprintf("unit %d", i), 0, t0, t0.Add(wall), "")
		data, err := os.ReadFile(out)
		if err != nil {
			return unit{}, err
		}
		os.Remove(out)
		results, err := readSink(data, jobs)
		if err != nil {
			return unit{}, err
		}
		base := gangBase(e)
		return unit{wall: wall, jobs: len(jobs), instr: uint64(len(jobs)) * base.InstrPerCore * uint64(base.Cores),
			results: results, key: "gang"}, nil
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	attempted := 0
	for _, u := range append(plain, tracedUnits...) {
		attempted += u.jobs + 1 // every job and its batch
	}

	if !e.trace {
		r := newReport()
		endToEnd(r, plain, setup, attempted, 0)
		r.finish(attempted, 0)
		return r, nil
	}

	r := newLayerReport()
	overhead := timerOverhead()
	b := boundaryLayers(r, rec, overhead)
	modelLayers(r, modelJobs(plain), gangBase(e).Cores)
	runtimeLayers(r, &before, &after, sumInstr(plain)+sumInstr(tracedUnits))
	r.set("trace.overhead_frac", medianWall(tracedUnits)/medianWall(plain)-1)

	run, wait := lifetimes(rec, starts)
	jobSpans(e.spans, rec, starts)
	var lived float64
	for _, x := range run {
		lived += x
	}
	laneInstr := float64(sumInstr(tracedUnits))
	r.set("gang.self_ns_per_lane_instr", (lived*1e9-b.nextNS-b.accessNS)/laneInstr)
	r.set("runner.job_run_s_p50", median(run))
	r.set("runner.queue_wait_s_p50", median(wait))
	r.set("runner.worker_busy_frac", lived/(float64(gangParallelism())*busy.Seconds()))
	if len(flushLags) > 0 {
		r.set("runner.sink_flush_lag_s_p50", median(flushLags))
	}
	engineLayers(r, reg.Snapshot())
	r.Samples["units"] = len(plain)
	r.Samples["traced_units"] = len(tracedUnits)
	r.Samples["gangs"] = len(run)
	r.Tail = reportTail(len(plain))
	r.Digest = digest(modelJobs(plain))
	r.finish(attempted, 0)
	return r, nil
}

// runTracedBatch is RunBatch's body with the engine's metrics registry
// kept, checkpointing to out.
func runTracedBatch(ctx context.Context, m banshee.Matrix, out string, reg *obs.Registry, width int) error {
	sink, err := runner.OpenSink(out, false)
	if err != nil {
		return err
	}
	eng := runner.Engine{Parallelism: gangParallelism(), Sink: sink, GangWidth: width, Metrics: reg}
	if _, err := eng.Run(ctx, m); err != nil {
		sink.Close()
		return err
	}
	return sink.Close()
}

// engineLayers sets the runner and gang counters from an engine metrics
// snapshot, summing label-scoped series (a daemon scopes each sweep's
// engine metrics by a sweep label).
func engineLayers(r *report, snap map[string]float64) {
	sum := func(family string) float64 {
		var v float64
		for k, x := range snap {
			if k == family || strings.HasPrefix(k, family+"{") {
				v += x
			}
		}
		return v
	}
	if a := sum("banshee_job_attempts_total"); a > 0 {
		r.set("runner.retries_per_attempt", sum("banshee_job_retries_total")/a)
	}
	if g := sum("banshee_gang_groups_total"); g > 0 {
		r.set("gang.lanes_per_group", sum("banshee_gang_lanes_total")/g)
	}
	r.set("gang.fallbacks", sum("banshee_gang_fallbacks_total"))
}

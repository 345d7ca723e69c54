package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"banshee/internal/mem"
	"banshee/internal/stats"
)

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A metric a workload does not exercise reads 0 (for instance
// graph.build_s where no graph kernel runs). BENCHMARK.json's per_layer
// list must name exactly these (a test checks).
var layerMetrics = func() [][2]string {
	m := [][2]string{
		{"workload.next_ns", "ns"},
		{"workload.events_per_kinstr", "1/kinstr"},
		{"graph.build_s", "s"},
		{"vm.translate_ns", "ns"},
		{"vm.tlb_lookup_ns", "ns"},
		{"vm.tlb_miss_ratio", "frac"},
		{"cache.l1_access_ns", "ns"},
		{"cache.l2_access_ns", "ns"},
		{"cache.l3_access_ns", "ns"},
		{"cache.l1_miss_ratio", "frac"},
		{"cache.l2_miss_ratio", "frac"},
		{"cache.llc_miss_ratio", "frac"},
		{"cache.llc_evictions_per_kinstr", "1/kinstr"},
	}
	for _, k := range schemeKinds {
		m = append(m, [2]string{"mc." + k + ".access_ns", "ns"}, [2]string{"mc." + k + ".ops_per_access", "ops"})
	}
	m = append(m,
		[2]string{"mc.dc_hit_ratio", "frac"},
		[2]string{"mc.remaps_per_kinstr", "1/kinstr"},
		[2]string{"banshee.tag_buffer_flushes", "1/job"},
		[2]string{"banshee.tlb_shootdowns", "1/job"},
		[2]string{"banshee.counter_samples_per_llc_miss", "1/miss"},
		[2]string{"banshee.sw_stall_frac", "frac"},
		[2]string{"dram.access_ns", "ns"},
	)
	for _, pkg := range []string{"inpkg", "offpkg"} {
		for _, c := range mem.Classes() {
			m = append(m, [2]string{"dram." + pkg + "_bytes_per_instr." + strings.ToLower(c.String()), "B/instr"})
		}
	}
	m = append(m,
		[2]string{"dram.avg_miss_lat_cycles", "cycles"},
		[2]string{"sim.self_ns_per_instr", "ns/instr"},
		[2]string{"gang.self_ns_per_lane_instr", "ns/instr"},
		[2]string{"ladder.coverage", "frac"},
		[2]string{"trace.overhead_frac", "frac"},
		[2]string{"runner.job_run_s_p50", "s"},
		[2]string{"runner.queue_wait_s_p50", "s"},
		[2]string{"runner.worker_busy_frac", "frac"},
		[2]string{"runner.sink_flush_lag_s_p50", "s"},
		[2]string{"runner.retries_per_attempt", "1/attempt"},
		[2]string{"gang.lanes_per_group", "lanes"},
		[2]string{"gang.fallbacks", "count"},
	)
	for _, p := range []string{"p50", "p90"} {
		for _, c := range httpCalls {
			m = append(m, [2]string{"sweepd.http_ms_" + p + "." + c, "ms"})
		}
	}
	return append(m,
		[2]string{"sweepd.lease_wait_ms_p50", "ms"},
		[2]string{"sweepd.first_record_ms_p50", "ms"},
		[2]string{"sweepd.remote_job_frac", "frac"},
		[2]string{"sweepd.lease_expiries", "count"},
		[2]string{"sweepd.load_shed", "count"},
		[2]string{"go.alloc_bytes_per_kinstr", "B/kinstr"},
		[2]string{"go.gc_cycles", "count"},
		[2]string{"go.gc_cpu_frac", "frac"},
	)
}()

// schemeKinds are the scheme kinds the workloads simulate; httpCalls the
// sweepd calls the closed loop makes.
var (
	schemeKinds = []string{"banshee", "tdc", "alloy", "hma", "unison", "cameo"}
	httpCalls   = []string{"submit", "stream", "status", "lease", "report"}
)

// newLayerReport returns a report with every per-layer metric at 0.
func newLayerReport() *report {
	r := newReport()
	for _, m := range layerMetrics {
		r.Metrics[m[0]] = metric{0, m[1]}
	}
	return r
}

func (r *report) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// modelLayers sets the modelled per-layer ratios from the statistics of
// jobs (exact and deterministic for a seed); counts are per job.
func modelLayers(r *report, jobs []stats.Sim, cores int) {
	a := aggregate(jobs)
	r.set("workload.events_per_kinstr", 1000*ratio(a.L1Accesses, a.Instructions))
	r.set("cache.l1_miss_ratio", ratio(a.L1Misses, a.L1Accesses))
	r.set("cache.l2_miss_ratio", ratio(a.L2Misses, a.L2Accesses))
	r.set("cache.llc_miss_ratio", ratio(a.LLCMisses, a.LLCAccesses))
	r.set("cache.llc_evictions_per_kinstr", 1000*ratio(a.LLCEvictions, a.Instructions))
	r.set("mc.dc_hit_ratio", ratio(a.DCHits, a.DCHits+a.DCMisses))
	r.set("mc.remaps_per_kinstr", 1000*ratio(a.Remaps, a.Instructions))
	r.set("banshee.tag_buffer_flushes", float64(a.TagBufferFlushes)/float64(len(jobs)))
	r.set("banshee.tlb_shootdowns", float64(a.TLBShootdowns)/float64(len(jobs)))
	r.set("banshee.counter_samples_per_llc_miss", ratio(a.CounterSamples, a.LLCMisses))
	r.set("banshee.sw_stall_frac", ratio(a.SWStallCycles, a.Cycles*uint64(cores)))
	for _, c := range mem.Classes() {
		n := strings.ToLower(c.String())
		r.set("dram.inpkg_bytes_per_instr."+n, ratio(a.InPkg.Bytes[c], a.Instructions))
		r.set("dram.offpkg_bytes_per_instr."+n, ratio(a.OffPkg.Bytes[c], a.Instructions))
	}
	r.set("dram.avg_miss_lat_cycles", a.AvgMissLat())
}

// boundary is the net time spent in the wrapped boundaries of a traced
// run, with the timer's own cost taken out.
type boundary struct {
	nextNS, accessNS float64 // totals
}

// boundaryLayers sets the workload, scheme and TLB metrics measured by
// the wrappers and returns the net boundary totals.
func boundaryLayers(r *report, rec *recorder, overhead time.Duration) boundary {
	rec.settle()
	srcs, schemes := rec.snapshot()
	var b boundary
	var nextRaw int64
	var events uint64
	for _, s := range srcs {
		nextRaw += s.ns
		events += s.calls
	}
	b.nextNS = max(0, float64(nextRaw)-float64(events)*float64(overhead))
	if events > 0 {
		r.set("workload.next_ns", b.nextNS/float64(events))
	}
	if len(srcs) > 0 && strings.HasSuffix(srcs[0].name, "_kernel") {
		r.set("graph.build_s", srcs[0].openDur.Seconds())
	}
	type acc struct{ calls, ops, ns uint64 }
	byKind := map[string]*acc{}
	var tlbHits, tlbMisses uint64
	for _, s := range schemes {
		a := byKind[s.kind]
		if a == nil {
			a = &acc{}
			byKind[s.kind] = a
		}
		a.calls += s.calls
		a.ops += s.ops
		a.ns += uint64(s.ns)
		tlbHits += s.tlbHits
		tlbMisses += s.tlbMisses
	}
	for kind, a := range byKind {
		net := max(0, float64(a.ns)-float64(a.calls)*float64(overhead))
		b.accessNS += net
		if _, listed := r.Metrics["mc."+kind+".access_ns"]; listed && a.calls > 0 {
			r.set("mc."+kind+".access_ns", net/float64(a.calls))
			r.set("mc."+kind+".ops_per_access", ratio(a.ops, a.calls))
		}
	}
	r.set("vm.tlb_miss_ratio", ratio(tlbMisses, tlbHits+tlbMisses))
	return b
}

// lifetimes returns each traced source's run time (open to close) and
// its start relative to the unit that opened it, in seconds.
func lifetimes(rec *recorder, starts unitStarts) (run, wait []float64) {
	srcs, _ := rec.snapshot()
	for _, s := range srcs {
		closed := s.closed.Load()
		if closed == 0 {
			continue
		}
		run = append(run, float64(closed-s.opened.UnixNano())/1e9)
		wait = append(wait, s.opened.Sub(starts.of(s.opened)).Seconds())
	}
	return run, wait
}

// unitStarts maps a time to the start of the latest unit begun at or
// before it.
type unitStarts []time.Time

func (u unitStarts) of(t time.Time) time.Time {
	if i := u.index(t); i >= 0 {
		return u[i]
	}
	return t
}

// index is the number of the latest unit begun at or before t, or -1.
func (u unitStarts) index(t time.Time) int {
	return sort.Search(len(u), func(i int) bool { return u[i].After(t) }) - 1
}

// jobSpans records a span per traced job (a source's open to close),
// caused by the unit that ran it.
func jobSpans(l *spanLog, rec *recorder, starts unitStarts) {
	srcs, _ := rec.snapshot()
	for _, s := range srcs {
		if closed := s.closed.Load(); closed != 0 {
			l.add("job", s.name, 1, s.opened, time.Unix(0, closed), fmt.Sprintf("unit %d", starts.index(s.opened)))
		}
	}
}

// runtimeLayers sets the Go runtime metrics over the span between two
// memory statistics reads that simulated instr instructions.
func runtimeLayers(r *report, before, after *runtime.MemStats, instr uint64) {
	r.set("go.alloc_bytes_per_kinstr", 1000*ratio(after.TotalAlloc-before.TotalAlloc, instr))
	r.set("go.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("go.gc_cpu_frac", after.GCCPUFraction)
}

// medianWall is the median wall time of units, in seconds.
func medianWall(us []unit) float64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = u.wall.Seconds()
	}
	return median(xs)
}

func sumInstr(us []unit) (n uint64) {
	for _, u := range us {
		n += u.instr
	}
	return n
}

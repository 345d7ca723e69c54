// Command perfbench is the repository benchmark: three workloads that
// drive the simulator through its public API — one Banshee run, a gang
// seed sweep, and a closed loop against an in-process sweepd — with a
// correctness gate before any timing, stamped results, and a traced
// mode that times each layer from outside the program.
//
//	perfbench --workload run-banshee-mix1 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics, or with
// --trace 1 the per-layer ones). See README.md for every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"banshee"
	"banshee/internal/stats"
)

// Seeds: the default used while the benchmark was written, and a
// held-out seed no tuning ever saw, on which a claimed gain must also
// hold.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// sizes are the workload sizes; smoke tests shrink them.
type sizes struct {
	SingleCores    int    `json:"single_cores"`
	SingleInstr    uint64 `json:"single_instr_per_core"`
	GangCores      int    `json:"gang_cores"`
	GangInstr      uint64 `json:"gang_instr_per_core"`
	GangSeeds      int    `json:"gang_seeds"`
	ServiceCores   int    `json:"service_cores"`
	ServiceInstr   uint64 `json:"service_instr_per_core"`
	SetupReps      int    `json:"setup_reps"`
	LadderReps     int    `json:"ladder_reps"`
	MinUnits       int    `json:"min_units"`
	GoldenCores    int    `json:"golden_cores"`
	GoldenInstr    uint64 `json:"golden_instr_per_core"`
	GoldenHMAEpoch uint64 `json:"golden_hma_epoch"`
	GoldenSeed     uint64 `json:"golden_seed"`
	// WarmupFrac is every simulation's warm-up share: modelled caches
	// start empty and statistics count only after it.
	WarmupFrac float64 `json:"warmup_frac"`
}

func defaultSizes() sizes {
	return sizes{
		SingleCores: 16, SingleInstr: 500_000,
		GangCores: 16, GangInstr: 100_000, GangSeeds: 8,
		ServiceCores: 1, ServiceInstr: 20_000,
		SetupReps: 21, LadderReps: 3, MinUnits: 3,
		GoldenCores: 2, GoldenInstr: 60_000, GoldenHMAEpoch: 2000, GoldenSeed: 42,
		WarmupFrac: banshee.DefaultConfig().WarmupFrac,
	}
}

// env is one benchmark invocation's context.
type env struct {
	root    string // checkout root (holds go.mod and testdata/)
	work    string // scratch directory of this invocation
	seed    uint64
	seconds time.Duration
	trace   bool
	sizes   sizes
	spans   *spanLog
	// setupInProcess measures set-up in this process instead of fresh
	// child processes (tests, where the executable is the test binary).
	setupInProcess bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples states how many samples each timing rests on, and the
	// highest percentile with at least ten samples beyond it.
	Samples map[string]int `json:"-"`
	Tail    float64        `json:"-"`
	Digest  string         `json:"-"`
}

var workloads = map[string]func(context.Context, *env) (*report, error){
	"run-banshee-mix1":    runSingle,
	"sweep-gang-tricount": runGang,
	"service-closed-loop": runService,
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: run-banshee-mix1, sweep-gang-tricount, service-closed-loop")
		seed      = flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
		seconds   = flag.Float64("seconds", 30, "measurement time in seconds")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		root      = flag.String("root", ".", "checkout root")
		setup     = flag.String("setup", "", "internal: measure one set-up of this workload and print its seconds")
		compare   = flag.Bool("compare", false, "compare two result files: perfbench -compare PARENT.jsonl CHANGE.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
		return
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fail(err)
	}
	if _, err := os.Stat(filepath.Join(absRoot, "go.mod")); err != nil {
		fail(fmt.Errorf("root %s does not hold the banshee module: %v", absRoot, err))
	}
	e := &env{root: absRoot, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, sizes: defaultSizes()}
	e.work = filepath.Join(absRoot, ".bench_build", "run", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fail(err)
	}
	defer os.RemoveAll(e.work)

	ctx := context.Background()
	if *setup != "" {
		d, err := setupOnce(ctx, e, *setup)
		if err != nil {
			os.RemoveAll(e.work)
			fail(err)
		}
		fmt.Println(d.Seconds())
		return
	}
	run, ok := workloads[*name]
	if !ok {
		os.RemoveAll(e.work)
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if err := runWorkload(ctx, e, *name, run); err != nil {
		os.RemoveAll(e.work)
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload runs the correctness gate, then the workload, and prints
// the stamp, the digest, the sample counts and — last — the result.
func runWorkload(ctx context.Context, e *env, name string, run func(context.Context, *env) (*report, error)) error {
	if err := goldenGate(e, name); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	if e.trace {
		e.spans = newSpanLog()
	}
	rep, err := run(ctx, e)
	if err != nil {
		return err
	}
	st := newStamp(e, name)
	rec := resultRecord{Stamp: st, Report: *rep, Samples: rep.Samples, Tail: rep.Tail, Digest: rep.Digest}
	if err := appendRecord(e, name, rec); err != nil {
		return err
	}
	if e.spans != nil {
		dir := filepath.Join(e.root, ".bench_build", "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		p := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", name, e.seed))
		if err := e.spans.writeFile(p); err != nil {
			return err
		}
		fmt.Println("# spans", p)
	}
	stampJSON, _ := json.Marshal(st)
	fmt.Println("# stamp", string(stampJSON))
	fmt.Printf("# stats_digest %s %s\n", name, rep.Digest)
	samples, _ := json.Marshal(rep.Samples)
	fmt.Printf("# samples %s (timings reportable up to p%g)\n", samples, rep.Tail)
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupOnce measures one set-up of the named workload in this process.
func setupOnce(ctx context.Context, e *env, name string) (time.Duration, error) {
	switch name {
	case "run-banshee-mix1":
		return setupSingle(e)
	case "sweep-gang-tricount":
		return setupGang(e)
	case "service-closed-loop":
		s, err := startService(ctx, filepath.Join(e.work, "setup"), nil)
		if err != nil {
			return 0, err
		}
		d := s.setup
		return d, s.close()
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}

// measureSetup returns the median of SetupReps set-ups, each in a fresh
// process so no substrate cache of an earlier one is warm.
func measureSetup(ctx context.Context, e *env, name string) (float64, error) {
	var xs []float64
	for i := 0; i < e.sizes.SetupReps; i++ {
		if e.setupInProcess {
			d, err := setupOnce(ctx, e, name)
			if err != nil {
				return 0, err
			}
			xs = append(xs, d.Seconds())
			continue
		}
		exe, err := os.Executable()
		if err != nil {
			return 0, err
		}
		cmd := exec.CommandContext(ctx, exe, "-setup", name, "-seed", strconv.FormatUint(e.seed, 10), "-root", e.root)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up process printed %q: %w", out, err)
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM) at
// the current resident set. Where it cannot, peakRSSMB keeps reporting
// the peak since the process started.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's CPU time so far, user and system. Unlike
// wall time it does not count time the machine ran other tenants.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// unit is one measured unit of work: a session run, a batch, or a
// service sweep.
type unit struct {
	wall    time.Duration
	cpu     time.Duration // process CPU time (user+system) during the unit
	rssMB   float64       // peak resident set during the unit
	jobs    int
	instr   uint64      // simulated instructions (every job's budget)
	results []stats.Sim // every job's statistics, in job order
	// key pairs units that must produce identical statistics.
	key string
}

// normalized returns the results with the traced workload label
// stripped, so traced and untraced runs compare field for field.
func (u unit) normalized() []stats.Sim {
	out := make([]stats.Sim, len(u.results))
	for i, r := range u.results {
		r.Workload = strings.TrimPrefix(r.Workload, tracedPrefix)
		out[i] = r
	}
	return out
}

// loop runs units until the measurement time has passed and at least
// MinUnits untraced units (and, when tracing, as many traced ones) have
// run. Traced and untraced units alternate so drift hits both alike.
// Every unit must reproduce the statistics of the first unit with the
// same key.
func loop(ctx context.Context, e *env, run func(i int, traced bool) (unit, error)) (plain, tracedUnits []unit, err error) {
	ref := map[string][]byte{}
	start := time.Now()
	for i := 0; ; i++ {
		tr := e.trace && i%2 == 0
		// Start each unit with only its own state live, so one unit's
		// garbage neither times into nor inflates the memory of the next.
		runtime.GC()
		resetPeakRSS()
		cpu0 := cpuTime()
		u, err := run(i, tr)
		if err != nil {
			return nil, nil, err
		}
		u.cpu = cpuTime() - cpu0
		u.rssMB = peakRSSMB()
		got, err := json.Marshal(u.normalized())
		if err != nil {
			return nil, nil, err
		}
		if want, ok := ref[u.key]; !ok {
			ref[u.key] = got
		} else if string(want) != string(got) {
			return nil, nil, fmt.Errorf("unit %d (traced=%v) changed the simulated statistics of %s", i, tr, u.key)
		}
		if tr {
			tracedUnits = append(tracedUnits, u)
		} else {
			plain = append(plain, u)
		}
		enough := len(plain) >= e.sizes.MinUnits && (!e.trace || len(tracedUnits) >= e.sizes.MinUnits)
		if enough && time.Since(start) >= e.seconds {
			return plain, tracedUnits, nil
		}
	}
}

// endToEndUnits names every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"sim_minstr_per_s": "Minstr/s", "jobs_per_s": "1/s",
	"sweep_latency_p50_s": "s", "sweep_latency_p90_s": "s", "setup_s": "s", "rss_peak_mb": "MB",
	"sim_ipc": "instr/cycle", "inpkg_bytes_per_instr": "B/instr", "offpkg_bytes_per_instr": "B/instr",
	"success_frac": "frac",
}

// endToEnd derives the end-to-end metrics shared by every workload from
// its untraced units and its count of attempted and failed operations.
func endToEnd(r *report, units []unit, setup float64, attempted, failed int) {
	var rates, jobRates, lat, rss []float64
	for _, u := range units {
		rss = append(rss, u.rssMB)
		rates = append(rates, float64(u.instr)/u.cpu.Seconds()/1e6)
		jobRates = append(jobRates, float64(u.jobs)/u.cpu.Seconds())
		lat = append(lat, u.wall.Seconds())
	}
	agg := aggregate(modelJobs(units))
	set := func(name string, v float64) { r.Metrics[name] = metric{v, endToEndUnits[name]} }
	set("sim_minstr_per_s", median(rates))
	set("jobs_per_s", median(jobRates))
	set("sweep_latency_p50_s", percentile(lat, 50))
	set("sweep_latency_p90_s", percentile(lat, 90))
	set("setup_s", setup)
	set("rss_peak_mb", median(rss))
	set("sim_ipc", agg.IPC())
	set("inpkg_bytes_per_instr", agg.InPkgBPI())
	set("offpkg_bytes_per_instr", agg.OffPkgBPI())
	set("success_frac", 1-float64(failed)/float64(attempted))
	r.Samples["units"] = len(units)
	r.Tail = reportTail(len(units))
	r.Digest = digest(modelJobs(units))
}

// modelUnits is how many leading untraced units the modelled metrics and
// the stats digest cover. Every run completes more than this many, so
// both cover the same jobs on every run of a seed; the service's sweeps
// differ by seed and are tiny, so one alone would be a noisy sample.
const modelUnits = 8

// modelJobs returns the statistics of every job of the leading units.
func modelJobs(units []unit) []stats.Sim {
	var out []stats.Sim
	for _, u := range units[:min(modelUnits, len(units))] {
		out = append(out, u.results...)
	}
	return out
}

// finish records the operation counts. A report is only produced once
// every correctness check has passed, so it is correct; failed counts
// operations that erred and were retried or absorbed (HTTP calls).
func (r *report) finish(attempted, failed int) {
	r.Attempted, r.Failed, r.Correct = attempted, failed, true
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Samples: map[string]int{}}
}

// aggregate sums the statistics of several jobs, so ratios over the sum
// weight each job by its own instructions.
func aggregate(rs []stats.Sim) stats.Sim {
	var a stats.Sim
	for _, r := range rs {
		a.Instructions += r.Instructions
		a.Cycles += r.Cycles
		a.L1Accesses += r.L1Accesses
		a.L1Misses += r.L1Misses
		a.L2Accesses += r.L2Accesses
		a.L2Misses += r.L2Misses
		a.LLCAccesses += r.LLCAccesses
		a.LLCMisses += r.LLCMisses
		a.LLCEvictions += r.LLCEvictions
		a.DCHits += r.DCHits
		a.DCMisses += r.DCMisses
		a.InPkg.Merge(r.InPkg)
		a.OffPkg.Merge(r.OffPkg)
		a.MissLatSum += r.MissLatSum
		a.MissLatCount += r.MissLatCount
		a.Remaps += r.Remaps
		a.TagProbes += r.TagProbes
		a.TagBufferFlushes += r.TagBufferFlushes
		a.TLBShootdowns += r.TLBShootdowns
		a.SWStallCycles += r.SWStallCycles
		a.CounterSamples += r.CounterSamples
		a.Prefetches += r.Prefetches
	}
	return a
}

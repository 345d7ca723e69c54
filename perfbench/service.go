package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"banshee"
	"banshee/internal/obs"
	"banshee/internal/sweepd"
)

// service-closed-loop: an in-process sweepd daemon on a loopback
// listener (Parallelism 1) with one attached worker holding one lease
// slot, driven by one client in a closed loop: submit a small sweep,
// follow its results stream to the last record, submit the next. Jobs
// are tiny, so HTTP, the lease broker, fsynced result writes and
// follow-mode streaming dominate.

var (
	serviceWorkloads = []string{"mcf", "mix1", "pagerank"}
	serviceSchemes   = []string{"Banshee", "HMA", "Unison", "CAMEO"}
)

// service is a running daemon, its listener, and an attached worker.
type service struct {
	d        *sweepd.Daemon
	srv      *http.Server
	served   chan error
	client   *banshee.SweepClient
	tr       *timedTransport
	reg      *obs.Registry
	stopWk   context.CancelFunc
	workerWG sync.WaitGroup
	setup    time.Duration // daemon start to worker attached
}

// startService starts the daemon over stateDir, serves it on a loopback
// port and attaches one single-slot worker, both talking through the
// counting transport, which also times and records each call when spans
// is non-nil.
func startService(ctx context.Context, stateDir string, spans *spanLog) (*service, error) {
	t0 := time.Now()
	s := &service{reg: obs.NewRegistry(), tr: newTransport(spans), served: make(chan error, 1)}
	d, err := sweepd.New(sweepd.Options{StateDir: stateDir, Parallelism: 1, Registry: s.reg})
	if err != nil {
		return nil, err
	}
	s.d = d
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: d.Handler()}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client, err = banshee.DialWith(ln.Addr().String(), banshee.SweepClientOptions{Transport: s.tr})
	if err != nil {
		s.close()
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	s.stopWk = cancel
	wk := &sweepd.Worker{Client: s.client, Name: "perfbench-worker", Parallel: 1}
	s.workerWG.Add(1)
	go func() {
		defer s.workerWG.Done()
		wk.Run(wctx)
	}()
	for d.Broker().Workers() == 0 {
		if time.Since(t0) > 30*time.Second {
			s.close()
			return nil, fmt.Errorf("worker did not attach within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.setup = time.Since(t0)
	return s, nil
}

// close stops the worker, the listener and the daemon, waiting for each.
func (s *service) close() error {
	if s.stopWk != nil {
		s.stopWk()
	}
	s.workerWG.Wait()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.d.Close())
	return errors.Join(errs...)
}

// streamClock is the results stream's writer: it keeps the bytes and
// when the first and the last of them arrived.
type streamClock struct {
	buf         bytes.Buffer
	first, last time.Time
}

func (w *streamClock) Write(p []byte) (int, error) {
	now := time.Now()
	if w.first.IsZero() {
		w.first = now
	}
	w.last = now
	return w.buf.Write(p)
}

// sweepSeed derives sweep k's seed from the benchmark seed, so every
// sweep is new content and its ID never dedupes against an earlier one.
func sweepSeed(seed uint64, k int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x | 1
}

func serviceSpec(e *env, k int, tr bool) banshee.SweepSpec {
	base := banshee.DefaultConfig()
	// A one-core job gets one core's share of the 16-core package's
	// DRAM cache, so per-job set-up stays small next to the service work.
	base.DCacheBytes = base.DCacheBytes * e.sizes.ServiceCores / base.Cores
	base.Cores = e.sizes.ServiceCores
	base.InstrPerCore = e.sizes.ServiceInstr
	spec := banshee.SweepSpec{Name: "perfbench-closed-loop", Base: base,
		Workloads: serviceWorkloads, Schemes: serviceSchemes, Seeds: []uint64{sweepSeed(e.seed, k)}}
	if tr {
		spec.Workloads, spec.Schemes = nil, nil
		for _, w := range serviceWorkloads {
			spec.Workloads = append(spec.Workloads, traced(w))
		}
		for _, s := range serviceSchemes {
			spec.Schemes = append(spec.Schemes, traced(s))
		}
	}
	return spec
}

func runService(ctx context.Context, e *env) (*report, error) {
	var setup float64
	if !e.trace {
		var err error
		if setup, err = measureSetup(ctx, e, "service-closed-loop"); err != nil {
			return nil, err
		}
	}
	rec := &recorder{}
	if e.trace {
		active.Store(rec)
		defer active.Store(nil)
	}
	s, err := startService(ctx, filepath.Join(e.work, "sweepd"), e.spans)
	if err != nil {
		return nil, err
	}
	var (
		starts      unitStarts
		firstRecord []float64
		flushLags   []float64
		busy        time.Duration
		sweeps      int
		jobsTotal   int
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, tracedUnits, err := loop(ctx, e, func(i int, tr bool) (unit, error) {
		// In a traced run, traced sweep i and untraced sweep i+1 share
		// seeds, so their statistics must agree.
		k := i
		if e.trace {
			k = i / 2
		}
		spec := serviceSpec(e, k, tr)
		sweeps++
		t0 := time.Now()
		starts = append(starts, t0)
		st, err := s.client.Submit(ctx, spec)
		if err != nil {
			return unit{}, err
		}
		var w streamClock
		if _, err := s.client.StreamResults(ctx, st.ID, 0, &w); err != nil {
			return unit{}, err
		}
		final, err := s.client.Status(ctx, st.ID)
		if err != nil {
			return unit{}, err
		}
		if final.State != banshee.SweepDone {
			return unit{}, fmt.Errorf("sweep %s ended %s", st.ID, final.State)
		}
		if w.buf.Len() == 0 {
			return unit{}, fmt.Errorf("sweep %s streamed no records", st.ID)
		}
		wall := w.last.Sub(t0)
		e.spans.add("unit", fmt.Sprintf("unit %d", i), 0, t0, w.last, "")
		onDisk, err := os.ReadFile(s.d.Store().ResultsPath(st.ID))
		if err != nil {
			return unit{}, err
		}
		if !bytes.Equal(onDisk, w.buf.Bytes()) {
			return unit{}, fmt.Errorf("sweep %s: streamed %d bytes differ from results.jsonl (%d bytes)",
				st.ID, w.buf.Len(), len(onDisk))
		}
		jobs, _, err := spec.Resolve()
		if err != nil {
			return unit{}, err
		}
		results, err := readSink(w.buf.Bytes(), jobs)
		if err != nil {
			return unit{}, fmt.Errorf("sweep %s: %w", st.ID, err)
		}
		jobsTotal += len(jobs)
		if tr {
			busy += wall
			firstRecord = append(firstRecord, float64(w.first.Sub(t0))/1e6)
			srcs, _ := rec.snapshot()
			var lastClose int64
			for _, src := range srcs {
				if !src.opened.Before(t0) {
					lastClose = max(lastClose, src.closed.Load())
				}
			}
			if lastClose > 0 {
				flushLags = append(flushLags, float64(w.last.UnixNano()-lastClose)/1e9)
			}
		}
		return unit{wall: wall, jobs: len(jobs), instr: uint64(len(jobs)) * spec.Base.InstrPerCore * uint64(spec.Base.Cores),
			results: results, key: fmt.Sprint(k)}, nil
	})
	runtime.ReadMemStats(&after)
	// Stop the worker and the daemon before reading anything the
	// simulations wrote: their goroutines have then ended.
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	calls := int(s.tr.calls.Load())
	failed := int(s.tr.failed.Load())
	attempted := jobsTotal + sweeps + calls

	if !e.trace {
		r := newReport()
		endToEnd(r, plain, setup, attempted, failed)
		r.Samples["http_calls"] = calls
		r.finish(attempted, failed)
		return r, nil
	}

	r := newLayerReport()
	overhead := timerOverhead()
	boundaryLayers(r, rec, overhead)
	modelLayers(r, modelJobs(plain), e.sizes.ServiceCores)
	runtimeLayers(r, &before, &after, sumInstr(plain)+sumInstr(tracedUnits))
	r.set("trace.overhead_frac", medianWall(tracedUnits)/medianWall(plain)-1)
	run, wait := lifetimes(rec, starts)
	jobSpans(e.spans, rec, starts)
	var lived float64
	for _, x := range run {
		lived += x
	}
	r.set("runner.job_run_s_p50", median(run))
	r.set("runner.queue_wait_s_p50", median(wait))
	r.set("runner.worker_busy_frac", lived/(2*busy.Seconds())) // one local slot, one worker slot
	r.set("runner.sink_flush_lag_s_p50", median(flushLags))
	snap := s.reg.Snapshot()
	engineLayers(r, snap)
	for _, c := range httpCalls {
		if xs := s.tr.durations(c); len(xs) > 0 {
			r.set("sweepd.http_ms_p50."+c, percentile(xs, 50))
			r.set("sweepd.http_ms_p90."+c, percentile(xs, 90))
			r.Samples["http."+c] = len(xs)
		}
	}
	if xs := s.tr.durations("lease_grant"); len(xs) > 0 {
		r.set("sweepd.lease_wait_ms_p50", percentile(xs, 50))
	}
	r.set("sweepd.first_record_ms_p50", median(firstRecord))
	r.set("sweepd.remote_job_frac", snap["sweepd_remote_results_total"]/float64(jobsTotal))
	r.set("sweepd.lease_expiries", snap["sweepd_lease_expiries_total"])
	r.set("sweepd.load_shed", snap[`sweepd_load_shed_total{reason="submit"}`]+snap[`sweepd_load_shed_total{reason="stream"}`])
	r.Samples["units"] = len(plain)
	r.Samples["traced_units"] = len(tracedUnits)
	r.Tail = reportTail(len(plain))
	r.Digest = digest(modelJobs(plain))
	r.finish(attempted, failed)
	return r, nil
}

package main

// Boundary tracing from outside the simulator. Every hook here goes
// through a public registration seam — banshee.RegisterWorkload,
// banshee.RegisterScheme, and the sweep client's Transport — so the
// program under test carries no tracing code of its own. A traced run
// selects the wrapped components by name ("traced:<workload>",
// "traced:<scheme>"); the wrappers forward every call to the real
// component and keep its name, so the simulated statistics are those
// of an untraced run.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	_ "unsafe" // for go:linkname

	"banshee"
	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/registry"
	"banshee/internal/stats"
	"banshee/internal/trace"
	"banshee/internal/vm"
	"banshee/internal/workload"
)

const tracedPrefix = "traced:"

// nanotime is the runtime's monotonic clock: a third of what a
// time.Now/time.Since pair costs, which matters at one read pair per
// simulated event.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// traced returns the wrapped name of a workload or scheme.
func traced(name string) string { return tracedPrefix + name }

// active is the recorder the registered wrappers report to; nil outside
// a traced run, in which case the wrappers still forward but keep no
// state beyond their own counters.
var active atomic.Pointer[recorder]

func init() {
	banshee.RegisterWorkload(banshee.WorkloadDef{Kind: "perfbench-traced", Open: openTracedSource})
	for _, kind := range registry.Kinds() {
		registerTracedScheme(kind)
	}
}

// registerTracedScheme registers the wrapper of one scheme kind: it
// answers to "traced:<any display name of kind>", builds the real scheme
// through the registry, and inherits the kind's gang safety.
func registerTracedScheme(kind string) {
	banshee.RegisterScheme(banshee.SchemeDef{
		Kind: "traced-" + kind,
		Parse: func(name string) (banshee.SchemeSpec, bool) {
			inner, ok := strings.CutPrefix(name, tracedPrefix)
			if !ok {
				return banshee.SchemeSpec{}, false
			}
			spec, err := banshee.ParseScheme(inner)
			if err != nil || spec.Kind != kind {
				return banshee.SchemeSpec{}, false
			}
			spec.Kind = "traced-" + kind
			return spec, true
		},
		Build: func(spec banshee.SchemeSpec, env banshee.SchemeEnv) (banshee.CacheScheme, error) {
			spec.Kind = kind
			inner, err := registry.Build(spec, env)
			if err != nil {
				return nil, err
			}
			s := &timedScheme{inner: inner, st: &schemeStats{kind: kind, tlbs: env.TLBs}}
			if r := active.Load(); r != nil {
				r.addScheme(s)
			}
			return s, nil
		},
		GangSafe: registry.GangSafe(banshee.SchemeSpec{Kind: kind}),
	})
}

// openTracedSource resolves "traced:<name>" by opening <name> and
// wrapping it. The open itself is timed: for graph kernels it is where
// the graph substrate (CSR) is built.
func openTracedSource(name string, cfg banshee.WorkloadConfig) (banshee.WorkloadSource, bool, error) {
	inner, ok := strings.CutPrefix(name, tracedPrefix)
	if !ok {
		return nil, false, nil
	}
	start := time.Now()
	src, err := workload.Open(inner, cfg)
	if err != nil {
		return nil, true, err
	}
	s := &timedSource{inner: src, st: &sourceStats{name: src.Name(), opened: start, openDur: time.Since(start)}}
	if r := active.Load(); r != nil {
		r.addSource(s)
	}
	return s, true, nil
}

// timedSource times each Next call of the wrapped workload source and,
// when the ladder asks for it, records the event stream in call order —
// which is the simulator's global event order.
type timedSource struct {
	inner  banshee.WorkloadSource
	st     *sourceStats
	stream *stream // non-nil while recording
}

// sourceStats is what a traced run keeps of a workload source. It
// outlives the source, which the simulator drops when its run ends.
type sourceStats struct {
	name    string
	calls   uint64
	ns      int64
	opened  time.Time
	openDur time.Duration
	closed  atomic.Int64 // unix nanos of Close, 0 while open
}

func (s *timedSource) Name() string      { return s.inner.Name() }
func (s *timedSource) Cores() int        { return s.inner.Cores() }
func (s *timedSource) Footprint() uint64 { return s.inner.Footprint() }

func (s *timedSource) Next(core int) trace.Event {
	t0 := nanotime()
	ev := s.inner.Next(core)
	s.st.ns += nanotime() - t0
	s.st.calls++
	if s.stream != nil {
		s.stream.events = append(s.stream.events, eventRec{
			addr: uint64(ev.Addr), gap: uint32(ev.Gap), core: uint16(core), write: ev.Write})
	}
	return ev
}

// Close marks the end of the source's run (the simulator closes a
// source when its run finishes) and closes the inner source if it holds
// resources.
func (s *timedSource) Close() error {
	s.st.closed.CompareAndSwap(0, time.Now().UnixNano())
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// timedScheme times each Access call of the wrapped scheme. It keeps
// the scheme's Name, so a traced run's statistics carry the real
// scheme's label.
type timedScheme struct {
	inner  mc.Scheme
	st     *schemeStats
	stream *stream // non-nil while recording
}

// schemeStats is what a traced run keeps of a scheme, like sourceStats.
// It holds the run's TLBs only until settle reads their counters, so a
// finished simulation's memory is not kept alive.
type schemeStats struct {
	kind               string
	calls, ops         uint64
	ns                 int64
	tlbs               []*vm.TLB
	tlbHits, tlbMisses uint64
}

func (s *timedScheme) Name() string            { return s.inner.Name() }
func (s *timedScheme) FillStats(st *stats.Sim) { s.inner.FillStats(st) }

func (s *timedScheme) Access(req mem.Request) mc.Result {
	t0 := nanotime()
	res := s.inner.Access(req)
	s.st.ns += nanotime() - t0
	s.st.calls++
	s.st.ops += uint64(len(res.Ops))
	if st := s.stream; st != nil {
		// Ops live in the scheme's scratch buffer: copy them out now.
		st.accesses = append(st.accesses, accessRec{
			event: uint32(len(st.events)), firstOp: uint32(len(st.ops)), nops: uint16(len(res.Ops)),
			hit: res.Hit, eviction: req.Eviction})
		for _, op := range res.Ops {
			st.ops = append(st.ops, op)
		}
	}
	return res
}

// stream is the recorded traffic at the two wrapped boundaries of one
// simulation: the workload's events and the scheme's requests with the
// DRAM ops each produced.
type stream struct {
	events   []eventRec
	accesses []accessRec
	ops      []mem.Op
}

type eventRec struct {
	addr  uint64
	gap   uint32
	core  uint16
	write bool
}

type accessRec struct {
	event    uint32 // events issued when the access was made
	firstOp  uint32
	nops     uint16
	hit      bool
	eviction bool
}

// recorder gathers the wrappers of one traced run. Simulations on
// several goroutines register concurrently; each wrapper itself is only
// touched by the goroutine running its simulation.
type recorder struct {
	mu      sync.Mutex
	sources []*sourceStats
	schemes []*schemeStats
	record  bool // attach a stream to the first source/scheme pair
	stream  *stream
	paired  bool // the stream has its scheme
}

func (r *recorder) addSource(s *timedSource) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.record && r.stream == nil {
		r.stream = &stream{}
		s.stream = r.stream
	}
	r.sources = append(r.sources, s.st)
}

func (r *recorder) addScheme(s *timedScheme) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.record && r.stream != nil && !r.paired {
		s.stream = r.stream
		r.paired = true
	}
	r.schemes = append(r.schemes, s.st)
}

// snapshot returns the statistics registered so far.
func (r *recorder) snapshot() ([]*sourceStats, []*schemeStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*sourceStats(nil), r.sources...), append([]*schemeStats(nil), r.schemes...)
}

// settle reads the TLB counters of every scheme registered so far and
// lets go of the TLBs. Call it once the simulations using them are done.
func (r *recorder) settle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.schemes {
		for _, t := range s.tlbs {
			s.tlbHits += t.Hits
			s.tlbMisses += t.Misses
		}
		s.tlbs = nil
	}
}

// timerOverhead measures what a timed span with nothing inside reads,
// so per-call boundary timings can be reported net of the timer.
func timerOverhead() time.Duration {
	const n = 200_000
	var total int64
	for i := 0; i < n; i++ {
		t0 := nanotime()
		total += nanotime() - t0
	}
	return time.Duration(total / n)
}

// timedTransport times every sweepd HTTP call, from the request to the
// close of its response body (for a follow-mode results stream, the
// whole stream), and counts the calls that failed or were refused.
type timedTransport struct {
	inner http.RoundTripper
	spans *spanLog // nil: count calls only

	calls  atomic.Int64
	failed atomic.Int64

	mu  sync.Mutex
	dur map[string][]float64 // call → durations in ms
}

func newTransport(spans *spanLog) *timedTransport {
	return &timedTransport{inner: http.DefaultTransport.(*http.Transport).Clone(), spans: spans,
		dur: map[string][]float64{}}
}

// callName maps a sweepd API path to the call it serves.
func callName(r *http.Request) string {
	switch base := path.Base(r.URL.Path); {
	case base == "sweeps" && r.Method == http.MethodPost:
		return "submit"
	case base == "results":
		return "stream"
	case base == "result":
		return "report"
	case base == "status" || base == "lease" || base == "renew":
		return base
	}
	return "other"
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(r)
	if r.Context().Err() != nil {
		// Abandoned by its caller (a worker's long poll at shutdown):
		// neither an attempt nor a failure of the service.
		return resp, err
	}
	t.calls.Add(1)
	if err != nil || resp.StatusCode >= 400 {
		t.failed.Add(1)
	}
	if err != nil || t.spans == nil {
		return resp, err
	}
	call, code := callName(r), resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		t.spans.add("http", call, 2, start, end, "")
		ms := float64(end.Sub(start)) / 1e6
		t.mu.Lock()
		defer t.mu.Unlock()
		t.dur[call] = append(t.dur[call], ms)
		if call == "lease" && code == http.StatusOK {
			t.dur["lease_grant"] = append(t.dur["lease_grant"], ms)
		}
	}}
	return resp, nil
}

func (t *timedTransport) durations(call string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.dur[call]...)
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// spanLog keeps the coarse spans of a traced run (units, jobs, HTTP
// calls, the ladder replay) in memory; they are written out once, as
// Chrome trace_event JSON, when the run ends. Per-call boundary timings
// are summed in the wrappers rather than kept as spans.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

type span struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // µs since the run's start
	Dur  float64 `json:"dur"` // µs
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args *cause  `json:"args,omitempty"`
}

// cause names the span that caused another.
type cause struct {
	Cause string `json:"cause"`
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// add records a finished span; cause names the span that caused it.
func (l *spanLog) add(cat, name string, tid int, start, end time.Time, causedBy string) {
	if l == nil {
		return
	}
	s := span{Name: name, Cat: cat, Ph: "X",
		TS: float64(start.Sub(l.base)) / 1e3, Dur: float64(end.Sub(start)) / 1e3, TID: tid}
	if causedBy != "" {
		s.Args = &cause{Cause: causedBy}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
}

// writeFile writes the spans as a Chrome trace_event document.
func (l *spanLog) writeFile(p string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].TS < l.spans[j].TS })
	data, err := json.Marshal(map[string]any{"traceEvents": l.spans, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

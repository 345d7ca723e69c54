package sim

import (
	"context"
	"fmt"
	"math"

	"banshee/internal/registry"
	"banshee/internal/stats"
)

// Gang execution (DESIGN.md §12): N simulations of the same workload
// stream run in lockstep as lanes of one Gang. For schemes that never
// touch the shared VM substrate, the front end (frontend.go) is a pure
// function of the per-core event stream, independent of the lane's
// seed and back-end timing. The Gang therefore runs it ONCE, records
// each event's gap, flags and residue, and replays the record through N
// back ends: each lane is a System whose step reads the recorded stream
// instead of calling the front end, so every lane's statistics are
// byte-identical to the same config run alone while the front-end work
// is amortized across the gang.

// coreStream is one core's recorded front-end stream in SoA form (gaps
// and flags dense, residues sparse). base/resBase are the global
// indices of element 0 — the stream is trimmed to the slowest lane's
// cursor as the gang advances, so memory stays bounded by lane skew,
// not run length.
type coreStream struct {
	gaps    []uint32
	flags   []uint8
	res     []resRec
	base    uint64
	resBase uint64
	// genInstr counts instructions generated so far (Σ gap+1). Every
	// lane consumes the same event prefix — retirement is purely
	// gap-driven, so all lanes cross the per-core budget at the same
	// event — which makes this the exact generate-ahead cap: events
	// past the budget crossing would never be consumed by any lane.
	genInstr uint64
}

// trimSlack is the trim hysteresis in events: prefixes shorter than
// this stay in place so trimming costs amortized O(1) per event.
const trimSlack = 8192

// gangStream is the shared front end and its recorded stream, one
// coreStream per simulated core, generated on demand as the fastest
// lane reaches it.
type gangStream struct {
	fe *frontEnd
	cs []coreStream
	// budget is the per-core instruction budget (identical across lanes
	// — InstrPerCore is part of GangKey); generation stops at the event
	// that crosses it, which is the last event any lane consumes.
	budget uint64
}

// genAhead is the generation chunk: when the lead lane touches the end
// of a core's generated stream, the front end materializes up to this
// many further events at once so batchShared can replay runs of
// core-private events even for the lane driving generation.
const genAhead = 256

// gen runs one more front-end event of core id and records it.
func (g *gangStream) gen(id int) {
	var r resRec
	gap, flags := g.fe.access(id, &r)
	if uint64(gap) > math.MaxUint32 {
		panic(fmt.Sprintf("sim: gang front end: event gap %d overflows the stream encoding", gap))
	}
	cs := &g.cs[id]
	cs.gaps = append(cs.gaps, uint32(gap))
	cs.flags = append(cs.flags, flags)
	cs.genInstr += uint64(gap) + 1
	if flags&feHasRes != 0 {
		cs.res = append(cs.res, r)
	}
}

// event returns core c's event at its lane cursor and advances the
// cursor, generating the event first if no lane has reached it yet. r
// is non-nil iff the event carries a residue (feHasRes).
func (g *gangStream) event(c *core) (gap int, flags uint8, r *resRec) {
	cs := &g.cs[c.id]
	i := c.evIdx - cs.base
	for i >= uint64(len(cs.gaps)) {
		g.gen(c.id)
	}
	// Generate ahead in chunks: every lane consumes the same event
	// prefix (retirement is purely gap-driven, so all lanes cross the
	// per-core budget at the same event), hence anything generated under
	// the budget will be consumed. Materializing a chunk here lets the
	// lead lane batch-replay runs instead of generating one event per
	// step; trailing lanes see the events regardless.
	for uint64(len(cs.gaps))-i < genAhead && cs.genInstr < g.budget {
		g.gen(c.id)
	}
	c.evIdx++
	flags = cs.flags[i]
	if flags&feHasRes != 0 {
		r = &cs.res[c.resIdx-cs.resBase]
		c.resIdx++
	}
	return int(cs.gaps[i]), flags, r
}

// trim drops stream prefixes every lane has consumed, keeping gang
// memory proportional to lane skew (bounded by the step quantum)
// instead of run length.
func (g *gangStream) trim(lanes []*System) {
	for ci := range g.cs {
		f := &g.cs[ci]
		minEv, minRes := ^uint64(0), ^uint64(0)
		for _, l := range lanes {
			c := l.cores[ci]
			if c.evIdx < minEv {
				minEv = c.evIdx
			}
			if c.resIdx < minRes {
				minRes = c.resIdx
			}
		}
		if k := minEv - f.base; k >= trimSlack {
			f.gaps = f.gaps[:copy(f.gaps, f.gaps[k:])]
			f.flags = f.flags[:copy(f.flags, f.flags[k:])]
			f.base = minEv
		}
		if kr := minRes - f.resBase; kr >= trimSlack/4 {
			f.res = f.res[:copy(f.res, f.res[kr:])]
			f.resBase = minRes
		}
	}
}

// batchShared replays, in one aggregate update, the run of already-
// generated events at c's cursor that touch no lane state beyond
// counters and the core clock: L1 hits, and L2 hits whose L1-evict
// cascade produced no L3 fill (flags clear of feFill0|feL2Miss — such
// events carry no residue and never reach the lane's L3).
//
// Identity argument: for these events the per-event updates are
// exactly associative — the clock advance over k events with gap sum G
// is (fract+G) div/mod IssueWidth plus one PageWalkCycles charge per
// TLB miss, retirement is G+k, and the counter bumps are sums — so the
// aggregate equals the event-by-event replay bit for bit. Reordering
// against other cores inside the batch window cannot be observed:
// these events read nothing lane-global and Step's only mid-run global
// sequence points are the warmup mark and epoch samples, so batching
// is disabled until the warmup mark has been captured (or WarmupFrac
// is 0, when no mark is ever taken) and whenever an epoch callback is
// installed. The scan stops at the first event with lane-side L3 work,
// at the end of the generated stream (never forcing generation), and
// at the per-core budget exactly where Step would stop scheduling the
// core.
func (s *System) batchShared(c *core) {
	if s.epochFn != nil || (!s.warmed && s.warmTarget > 0) {
		return
	}
	f := &s.shared.cs[c.id]
	i := c.evIdx - f.base
	n := uint64(len(f.gaps))
	var k, l1m, walks, gapSum uint64
	for i < n && c.retired+gapSum+k < s.cfg.InstrPerCore {
		fl := f.flags[i]
		if fl&(feFill0|feL2Miss) != 0 {
			break
		}
		gapSum += uint64(f.gaps[i])
		k++
		if fl&feTLBMiss != 0 {
			walks++
		}
		if fl&feL1Miss != 0 {
			l1m++
		}
		i++
	}
	if k == 0 {
		return
	}
	c.evIdx += k
	total := uint64(c.fract) + gapSum
	iw := uint64(s.cfg.IssueWidth)
	c.time += total/iw + walks*s.cost.PageWalkCycles
	c.fract = int(total % iw)
	c.retired += gapSum + k
	s.st.L1Accesses += k
	s.st.L1Misses += l1m
	s.st.L2Accesses += l1m
}

// GangEligible reports whether cfg can run as a lane of a lockstep
// gang, returning nil or the disqualifying reason. Two conditions: the
// scheme must be registered gang-safe (it never touches the shared VM
// substrate — see registry.Scheme.GangSafe), and the prefetcher must
// be off (it observes every L2 access, but the recorded stream keeps
// the demand address of LLC accesses only).
func GangEligible(cfg Config) error {
	if cfg.PrefetchDegree != 0 {
		return fmt.Errorf("sim: gang: PrefetchDegree %d needs the demand address of L2 hits, which the gang stream does not record; only 0 is gang-eligible", cfg.PrefetchDegree)
	}
	if !registry.GangSafe(cfg.Scheme) {
		return fmt.Errorf("sim: gang: scheme kind %q is not registered gang-safe (it may touch the shared VM substrate)", cfg.Scheme.Kind)
	}
	return nil
}

// GangKey is the shared-front-end shape of cfg: two configs can run as
// lanes of the same gang iff their keys are equal (and both are
// GangEligible). The key covers everything the shared front end
// depends on — the workload stream identity (name, cores, effective
// workload seed, scale, intensity), the VM substrate (large pages),
// the L1/L2/TLB geometry, and the per-core instruction budget (which
// fixes how many events each core consumes). Everything back-end —
// Seed, scheme tuning, L3 geometry, DRAM knobs, CPUMHz, IssueWidth,
// MSHRs, DepStallFrac, WarmupFrac — may vary per lane.
func GangKey(cfg Config) string {
	return fmt.Sprintf("%s|c%d|ws%d|sc%g|in%g|lp%t|l1:%d/%d|l2:%d/%d|tlb%d|n%d",
		cfg.Workload, cfg.Cores, cfg.workloadSeed(), cfg.Scale, cfg.Intensity,
		cfg.LargePages, cfg.L1Bytes, cfg.L1Ways, cfg.L2Bytes, cfg.L2Ways,
		cfg.TLBEntries, cfg.InstrPerCore)
}

// Gang is a set of simulations (lanes) advancing in lockstep over one
// shared front-end replay. Each lane is a full System producing
// statistics byte-identical to the same config run alone; the gang
// owns the recorded stream, and the lanes share the front end's
// workload source. Like Session, a Gang is a single-goroutine object.
type Gang struct {
	lanes  []*System
	gs     *gangStream
	runErr error
	done   bool
}

// NewGang assembles one lane per config. All configs must be
// GangEligible, share one GangKey, and name the same scheme kind; a
// multi-seed gang must therefore set WorkloadSeed so the lanes share a
// stream (NewGangSeeds does this for you).
func NewGang(cfgs []Config) (*Gang, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one lane config")
	}
	for i := range cfgs {
		if err := cfgs[i].validate(); err != nil {
			return nil, err
		}
		if err := GangEligible(cfgs[i]); err != nil {
			return nil, fmt.Errorf("lane %d: %w", i, err)
		}
	}
	key, kind := GangKey(cfgs[0]), cfgs[0].Scheme.Kind
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].Scheme.Kind != kind {
			return nil, fmt.Errorf("sim: gang lanes mix scheme kinds %q and %q", kind, cfgs[i].Scheme.Kind)
		}
		if GangKey(cfgs[i]) != key {
			return nil, fmt.Errorf(
				"sim: gang lane %d front-end shape %q differs from lane 0 %q (multi-seed gangs must share Config.WorkloadSeed)",
				i, GangKey(cfgs[i]), key)
		}
	}
	fe, err := openFrontEnd(cfgs[0])
	if err != nil {
		return nil, err
	}
	defer fe.release() // the lanes hold the source from here on
	g := &Gang{gs: &gangStream{fe: fe, cs: make([]coreStream, len(fe.cores)), budget: cfgs[0].InstrPerCore}}
	for i := range cfgs {
		cfg := cfgs[i]
		cfg.Cores = len(fe.cores)
		lane, err := newSystem(cfg, fe, nil, nil)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("sim: gang lane %d: %w", i, err)
		}
		lane.shared = g.gs
		g.lanes = append(g.lanes, lane)
	}
	return g, nil
}

// NewGangSeeds is the common case: one config replicated across seeds,
// run as a gang. The scheme display name resolves exactly as
// NewSession's does. When cfg.WorkloadSeed is zero it is pinned to
// cfg.Seed (or the first seed) so all lanes share the stream — set it
// explicitly to choose the stream independently of the seeds.
func NewGangSeeds(cfg Config, workloadName, scheme string, seeds []uint64) (*Gang, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one seed")
	}
	spec, err := ResolveScheme(scheme, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	cfg.Workload = workloadName
	cfg.Scheme = spec
	if cfg.WorkloadSeed == 0 {
		if cfg.Seed != 0 {
			cfg.WorkloadSeed = cfg.Seed
		} else {
			cfg.WorkloadSeed = seeds[0]
		}
	}
	cfgs := make([]Config, len(seeds))
	for i, sd := range seeds {
		c := cfg
		c.Seed = sd
		cfgs[i] = c
	}
	return NewGang(cfgs)
}

// Width returns the number of lanes.
func (g *Gang) Width() int { return len(g.lanes) }

// Step advances every unfinished lane by at least n retired
// instructions in lockstep, then trims the shared stream to the
// slowest lane. done reports all lanes complete. Errors (a failed
// shared stream, a cancelled Run) are terminal for the whole gang.
func (g *Gang) Step(n uint64) (done bool, err error) {
	if g.runErr != nil {
		return false, g.runErr
	}
	if g.done {
		return true, nil
	}
	all := true
	for _, l := range g.lanes {
		laneDone, err := l.Step(n)
		if err != nil {
			g.fail(err)
			return false, g.runErr
		}
		if !laneDone {
			all = false
		}
	}
	g.gs.trim(g.lanes)
	g.done = all
	return all, nil
}

// fail terminates the gang: every still-running lane fails with err,
// which releases the shared source once no lane holds it.
func (g *Gang) fail(err error) {
	if g.runErr == nil {
		g.runErr = err
	}
	for _, l := range g.lanes {
		if !l.finished {
			l.fail(err)
		}
	}
}

// Run drives all lanes to completion under ctx and returns one final
// stats.Sim per lane, in lane order. Cancellation mirrors
// Session.Run: the gang stops at the next step boundary, releases its
// resources, and returns the partial per-lane windows together with
// an error wrapping ctx.Err().
func (g *Gang) Run(ctx context.Context) ([]stats.Sim, error) {
	for {
		if g.runErr != nil {
			return g.Results(), g.runErr
		}
		if g.done {
			return g.Results(), nil
		}
		if err := ctx.Err(); err != nil {
			p := g.Progress()
			werr := fmt.Errorf("sim: gang run cancelled after %d of %d instructions: %w",
				p.Retired, p.Total, err)
			g.fail(werr)
			return g.Results(), werr
		}
		if _, err := g.Step(stepQuantum); err != nil {
			return g.Results(), err
		}
	}
}

// Results returns one stats.Sim per lane: the final measurement window
// for completed lanes, the current partial window otherwise.
func (g *Gang) Results() []stats.Sim {
	out := make([]stats.Sim, len(g.lanes))
	for i, l := range g.lanes {
		if l.finished && l.runErr == nil {
			out[i] = l.final
		} else {
			out[i] = l.Snapshot().Window
		}
	}
	return out
}

// Progress aggregates lane progress: instructions retired and budget
// summed over lanes, the furthest simulated clock, and the least-
// advanced lifecycle phase.
func (g *Gang) Progress() Progress {
	var p Progress
	p.Phase = stats.PhaseDone
	for _, l := range g.lanes {
		lp := l.Progress()
		p.Retired += lp.Retired
		p.Total += lp.Total
		if lp.Cycles > p.Cycles {
			p.Cycles = lp.Cycles
		}
		if lp.Phase < p.Phase {
			p.Phase = lp.Phase
		}
	}
	return p
}

// Err returns the gang's terminal error, if any.
func (g *Gang) Err() error { return g.runErr }

// Close releases the gang's resources (the shared workload source).
// Completed and failed gangs release themselves; Close is for
// abandoning a gang early. Idempotent.
func (g *Gang) Close() error {
	for _, l := range g.lanes {
		l.closeSource()
	}
	return nil
}

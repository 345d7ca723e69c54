package sim

import (
	"fmt"
	"io"

	"banshee/internal/cache"
	"banshee/internal/mem"
	"banshee/internal/vm"
	"banshee/internal/workload"
)

// The core/controller cut (DESIGN.md §12). Everything up to the L2
// boundary — the workload stream, TLB/page-table translation and each
// core's private L1/L2 — is the front end; it reduces one event of one
// core to what the back end sees of it: the gap, the flag bits below,
// and a residue. A single run replays each event through its back end
// as soon as it is made; a Gang records the stream once and replays it
// through one back end per lane.

// Per-event flag bits set by the front end. All but feTLBMiss describe
// an L1 miss and stay clear on an L1 hit. In a recorded gang stream an
// event carries a residue iff any of feHasRes is set.
const (
	feTLBMiss = 1 << iota // translation missed the TLB (page-walk cost)
	feL1Miss              // missed L1 → L2 accessed
	feL2Miss              // missed L2 → LLC accessed
	feLarge               // the access resolves on a 2 MB page
	feWrite               // the demand access is a write
	feFill0               // L1-evict cascade produced an L3 fill (fill[0])
	feFill1               // the L2 victim produced an L3 fill (fill[1])
	feCached              // the TLB snapshot maps the page into the DRAM cache (§3.2)

	feHasRes = feFill0 | feFill1 | feL2Miss
)

// resRec is the per-event residue: the demand address, the Way bits of
// the TLB snapshot's mapping (Cached is feCached), and up to two dirty
// L3 fills in the order the back end applies them — fill[0] from the
// L1-evict cascade through L2, then, on an L2 miss, fill[1] from the L2
// victim.
type resRec struct {
	addr     mem.Addr
	fill     [2]mem.Addr
	fillMeta [2]uint8
	way      uint8
}

// mapping is the DRAM-cache mapping the event's requests carry: the
// TLB snapshot's, taken before any back-end work of the same event, so
// a shootdown the event itself triggers does not reach its own requests.
func (r *resRec) mapping(flags uint8) mem.Mapping {
	return mem.Mapping{Known: true, Cached: flags&feCached != 0, Way: r.way}
}

// frontEnd owns the workload source, the page table and each core's
// TLB, L1 and L2. Every back end replaying it holds a reference; the
// source is closed when the last one lets go.
type frontEnd struct {
	src   workload.Source
	pt    *vm.PageTable
	tlbs  []*vm.TLB // per core; also what schemes shoot down
	cores []frontCore
	users int
}

type frontCore struct{ l1, l2 *cache.Cache }

// openFrontEnd opens cfg's workload and builds the private hierarchy of
// every core. Cores == 0 adopts the source's own shape: recorded traces
// carry their core count (synthetic sources reject 0). The caller holds
// one reference and releases it once its back ends are built.
func openFrontEnd(cfg Config) (*frontEnd, error) {
	src, err := workload.Open(cfg.Workload, workload.Config{
		Cores: cfg.Cores, Seed: cfg.workloadSeed(), Scale: cfg.Scale, Intensity: cfg.Intensity,
	})
	if err != nil {
		return nil, err
	}
	f := &frontEnd{src: src, pt: vm.NewPageTable(), users: 1}
	f.pt.DefaultLarge = cfg.LargePages
	for i := 0; i < src.Cores(); i++ {
		f.tlbs = append(f.tlbs, vm.NewTLB(cfg.TLBEntries))
		f.cores = append(f.cores, frontCore{
			l1: cache.New(cache.Config{
				Name: fmt.Sprintf("L1d-%d", i), SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways, LineBytes: mem.LineBytes,
			}),
			l2: cache.New(cache.Config{
				Name: fmt.Sprintf("L2-%d", i), SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways, LineBytes: mem.LineBytes,
			}),
		})
	}
	return f, nil
}

// release drops one reference, closing a source that holds external
// resources (replayed trace files) when none is left.
func (f *frontEnd) release() {
	if f.users--; f.users > 0 {
		return
	}
	if c, ok := f.src.(io.Closer); ok {
		c.Close()
	}
}

// access takes core id's next event through its TLB, L1 and L2,
// returning its gap and flags and writing its residue to r. An L1 hit
// leaves r alone, and a fill is written only when its flag is set, so a
// reused r keeps stale fields that the flags do not name. Hit latencies
// are folded into the core model (the out-of-order window hides them),
// so only the residue's L3 work is timed. l2.Fill's eviction is copied
// out before l2.Access reuses the scratch slot.
func (f *frontEnd) access(id int, r *resRec) (gap int, flags uint8) {
	ev := f.src.Next(id)
	pte, tlbHit := f.tlbs[id].Lookup(ev.Addr, f.pt)
	if !tlbHit {
		flags |= feTLBMiss
	}
	meta := lineMeta(pte.Size)
	fc := &f.cores[id]
	hit, ev1 := fc.l1.Access(ev.Addr, ev.Write, meta)
	if hit {
		return ev.Gap, flags
	}
	flags |= feL1Miss
	if pte.Size == mem.Page2M {
		flags |= feLarge
	}
	if ev.Write {
		flags |= feWrite
	}
	if pte.Cached {
		flags |= feCached
	}
	r.addr, r.way = ev.Addr, pte.Way
	if ev1 != nil {
		if evf := fc.l2.Fill(ev1.Addr, true, ev1.Meta); evf != nil {
			flags |= feFill0
			r.fill[0], r.fillMeta[0] = evf.Addr, evf.Meta
		}
	}
	if hit2, ev2 := fc.l2.Access(ev.Addr, false, meta); !hit2 {
		flags |= feL2Miss
		if ev2 != nil {
			flags |= feFill1
			r.fill[1], r.fillMeta[1] = ev2.Addr, ev2.Meta
		}
	}
	return ev.Gap, flags
}

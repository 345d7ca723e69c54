package vm

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

func TestTranslateAllocatesOnFirstTouch(t *testing.T) {
	pt := NewPageTable()
	frame := mem.PageNum(0x123456789)
	if n := pt.SetCached(frame, true, 1); n != 0 {
		t.Fatalf("SetCached before first touch touched %d PTEs", n)
	}
	e := pt.Translate(0x123456789)
	if e != (PTE{Size: mem.Page4K}) {
		t.Fatalf("first touch gave %+v, want an uncached 4 KB PTE", e)
	}
	if n := pt.SetCached(frame, true, 1); n != 1 {
		t.Fatalf("SetCached after first touch touched %d PTEs, want 1", n)
	}
	// Same page, any offset: the same (now updated) PTE.
	for _, a := range []mem.Addr{0x123456789, 0x123456000, 0x123456FFF} {
		if e := pt.Translate(a); !e.Cached || e.Way != 1 {
			t.Fatalf("Translate(%#x) = %+v after SetCached", a, e)
		}
	}
}

func TestDefaultLarge(t *testing.T) {
	pt := NewPageTable()
	pt.DefaultLarge = true
	a := mem.Addr(0x40000000) // 2 MB aligned
	if pt.Translate(a+0x1234).Size != mem.Page2M {
		t.Fatal("DefaultLarge not applied")
	}
	// The whole 2 MB region shares one PTE, keyed by its first 4 KB page.
	if n := pt.SetCached(mem.PageNum(a), true, 2); n != 1 {
		t.Fatalf("SetCached on the region key touched %d PTEs, want 1", n)
	}
	if e := pt.Translate(a + mem.PageBytes*100); !e.Cached || e.Way != 2 {
		t.Fatalf("another 4 KB page of the region gave %+v", e)
	}
	if n := pt.SetCached(mem.PageNum(a)+1, true, 2); n != 0 {
		t.Fatalf("SetCached on a non-region key touched %d PTEs", n)
	}
	if e := pt.Translate(a + mem.LargeBytes); e.Cached {
		t.Fatal("neighboring region inherited the mapping")
	}
}

func TestSetCachedUnknownFrame(t *testing.T) {
	pt := NewPageTable()
	if n := pt.SetCached(0xDEAD, true, 0); n != 0 {
		t.Fatalf("SetCached on unknown frame touched %d", n)
	}
}

func TestPTEMapping(t *testing.T) {
	e := &PTE{Cached: true, Way: 2}
	m := e.Mapping()
	if !m.Known || !m.Cached || m.Way != 2 {
		t.Fatalf("mapping = %+v", m)
	}
}

func TestTLBHitMiss(t *testing.T) {
	pt := NewPageTable()
	tlb := NewTLB(4)
	_, hit := tlb.Lookup(0x1000, pt)
	if hit {
		t.Fatal("cold TLB hit")
	}
	_, hit = tlb.Lookup(0x1040, pt) // same page
	if !hit {
		t.Fatal("TLB missed after fill")
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBCapacityLRU(t *testing.T) {
	pt := NewPageTable()
	tlb := NewTLB(2)
	tlb.Lookup(0x1000, pt)
	tlb.Lookup(0x2000, pt)
	tlb.Lookup(0x1000, pt) // refresh page 1
	tlb.Lookup(0x3000, pt) // evicts page 2
	if _, hit := tlb.Lookup(0x1000, pt); !hit {
		t.Fatal("MRU entry evicted")
	}
	if _, hit := tlb.Lookup(0x2000, pt); hit {
		t.Fatal("LRU entry survived")
	}
}

func TestTLBStaleness(t *testing.T) {
	// The essence of Banshee's lazy coherence: a TLB entry is a
	// snapshot, so a PTE update is invisible until a shootdown.
	pt := NewPageTable()
	tlb := NewTLB(8)
	e, _ := tlb.Lookup(0x4000, pt)
	if e.Cached {
		t.Fatal("fresh PTE marked cached")
	}
	frame := mem.PageNum(0x4000)
	pt.SetCached(frame, true, 1)
	stale, hit := tlb.Lookup(0x4000, pt)
	if !hit {
		t.Fatal("expected TLB hit")
	}
	if stale.Cached {
		t.Fatal("TLB saw PTE update without shootdown — not a snapshot")
	}
	tlb.Flush()
	fresh, hit := tlb.Lookup(0x4000, pt)
	if hit {
		t.Fatal("hit after flush")
	}
	if !fresh.Cached || fresh.Way != 1 {
		t.Fatal("reload after shootdown did not see updated PTE")
	}
	if tlb.Shootdowns != 1 {
		t.Fatalf("shootdowns = %d", tlb.Shootdowns)
	}
}

func TestTLBLargePageKey(t *testing.T) {
	pt := NewPageTable()
	pt.DefaultLarge = true
	tlb := NewTLB(4)
	tlb.Lookup(0x40000000, pt)
	// Any 4 KB page in the same 2 MB region must hit the same entry.
	e, hit := tlb.Lookup(0x40000000+mem.PageBytes*17, pt)
	if !hit {
		t.Fatal("large-page TLB entry not shared across the region")
	}
	if e.Size != mem.Page2M {
		t.Fatalf("large-page TLB entry has size %v", e.Size)
	}
}

func TestTLBOccupancy(t *testing.T) {
	// A TLB holds at most its capacity: after ten distinct pages only
	// the last four hit, and a flush empties it.
	pt := NewPageTable()
	tlb := NewTLB(4)
	for i := 0; i < 10; i++ {
		tlb.Lookup(mem.Addr(i)<<mem.PageOffsetBits, pt)
	}
	for i := 9; i >= 0; i-- {
		_, hit := tlb.Lookup(mem.Addr(i)<<mem.PageOffsetBits, pt)
		if hit != (i >= 6) {
			t.Fatalf("page %d: hit = %v", i, hit)
		}
		if !hit {
			break // the miss refilled the TLB; later pages say nothing
		}
	}
	tlb.Flush()
	if _, hit := tlb.Lookup(9<<mem.PageOffsetBits, pt); hit {
		t.Fatal("flush left entries valid")
	}
}

func TestNewTLBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTLB(0) did not panic")
		}
	}()
	NewTLB(0)
}

func TestDefaultCostModel(t *testing.T) {
	c := DefaultCostModel(2700)
	if c.PTEUpdateCycles != 54000 { // 20 µs × 2700 MHz
		t.Fatalf("PTE update cycles = %d, want 54000", c.PTEUpdateCycles)
	}
	if c.ShootdownInitiator != 10800 || c.ShootdownSlave != 2700 {
		t.Fatalf("shootdown costs = %d/%d", c.ShootdownInitiator, c.ShootdownSlave)
	}
}

func TestTranslationIdentityProperty(t *testing.T) {
	// Property: two addresses on the same 4 KB page share one PTE;
	// addresses on different pages do not.
	f := func(a, b uint64) bool {
		pt := NewPageTable()
		aa := mem.Addr(a % (1 << 44))
		bb := mem.Addr(b % (1 << 44))
		pt.Translate(aa)
		pt.Translate(bb)
		pt.SetCached(mem.PageNum(aa), true, 3)
		return pt.Translate(bb).Cached == (mem.PageNum(aa) == mem.PageNum(bb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refPTE and refTLB are a deliberately naive reference for the page
// table and TLB: a builtin map of page key → mapping, and a TLB of full
// PTE snapshots whose victim is the first invalid slot, else the one
// with the minimum last-use stamp.
type refPTE struct {
	cached bool
	way    uint8
}

type refEntry struct {
	valid bool
	key   uint64
	pte   PTE
	stamp uint64
}

type refTLB struct {
	entries      []refEntry
	tick         uint64
	hits, misses uint64
}

// refKey is the page key: 4 KB page number, or a 2 MB page's first
// 4 KB page number.
func refKey(a mem.Addr, large bool) uint64 {
	if large {
		return uint64(a) >> 21 << 9
	}
	return uint64(a) >> 12
}

func (r *refTLB) lookup(a mem.Addr, large bool, pt map[uint64]refPTE) (PTE, bool) {
	key := refKey(a, large)
	r.tick++
	for i := range r.entries {
		if e := &r.entries[i]; e.valid && e.key == key {
			e.stamp = r.tick
			r.hits++
			return e.pte, true
		}
	}
	r.misses++
	p := pt[key] // first touch creates an uncached PTE
	pt[key] = p
	size := mem.Page4K
	if large {
		size = mem.Page2M
	}
	snap := PTE{Size: size, Cached: p.cached, Way: p.way}
	victim := 0
	for i, e := range r.entries {
		if !e.valid {
			victim = i
			break
		}
		if e.stamp < r.entries[victim].stamp {
			victim = i
		}
	}
	r.entries[victim] = refEntry{valid: true, key: key, pte: snap, stamp: r.tick}
	return snap, false
}

func (r *refTLB) flush() {
	for i := range r.entries {
		r.entries[i].valid = false
	}
}

// TestDifferentialAgainstReference drives the page table and TLBs and
// the naive reference with the same random streams of lookups,
// SetCached on present and absent frames, and flushes, at 4 KB and
// 2 MB pages, and requires identical results throughout.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, large := range []bool{false, true} {
		for _, entries := range []int{1, 4, 64} {
			rng := rand.New(rand.NewPCG(uint64(entries), 7))
			pt := NewPageTable()
			pt.DefaultLarge = large
			ref := map[uint64]refPTE{}
			const cores = 2
			tlbs := make([]*TLB, cores)
			refs := make([]*refTLB, cores)
			for c := range tlbs {
				tlbs[c] = NewTLB(entries)
				refs[c] = &refTLB{entries: make([]refEntry, entries)}
			}
			// Pages come from a working set a few times the TLB size
			// so both hits and misses are common.
			pages := uint64(3*entries + 5)
			addr := func() mem.Addr {
				p := rng.Uint64N(pages)
				if large {
					return mem.Addr(p<<21 | rng.Uint64N(1<<21))
				}
				return mem.Addr(p<<12 | rng.Uint64N(1<<12))
			}
			for step := 0; step < 20000; step++ {
				c := rng.IntN(cores)
				switch op := rng.IntN(10); {
				case op < 6:
					a := addr()
					got, hit := tlbs[c].Lookup(a, pt)
					want, wantHit := refs[c].lookup(a, large, ref)
					if got != want || hit != wantHit {
						t.Fatalf("large=%v entries=%d step %d: Lookup(%#x) = %+v,%v, want %+v,%v",
							large, entries, step, a, got, hit, want, wantHit)
					}
				case op < 9:
					// Frames in 4 KB units: region keys, keys inside a
					// 2 MB region, and pages never touched.
					frame := rng.Uint64N(pages << 9)
					if rng.IntN(2) == 0 {
						frame = refKey(addr(), large)
					}
					cached, way := rng.IntN(2) == 0, uint8(rng.IntN(MaxWays))
					want := 0
					if _, ok := ref[frame]; ok {
						ref[frame] = refPTE{cached, way}
						want = 1
					}
					if n := pt.SetCached(frame, cached, way); n != want {
						t.Fatalf("large=%v entries=%d step %d: SetCached(%#x) = %d, want %d",
							large, entries, step, frame, n, want)
					}
				default:
					tlbs[c].Flush()
					refs[c].flush()
				}
			}
			for c := range tlbs {
				if tlbs[c].Hits != refs[c].hits || tlbs[c].Misses != refs[c].misses {
					t.Fatalf("large=%v entries=%d core %d: hits/misses %d/%d, want %d/%d", large, entries, c,
						tlbs[c].Hits, tlbs[c].Misses, refs[c].hits, refs[c].misses)
				}
				if refs[c].hits == 0 || refs[c].misses == 0 {
					t.Fatalf("large=%v entries=%d core %d: stream had no hits or no misses", large, entries, c)
				}
			}
		}
	}
}

package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

func small() Config {
	return Config{
		Name: "t", SizeBytes: 4096, Ways: 4, LineBytes: 64,
	}
}

func TestValidation(t *testing.T) {
	bad := []struct {
		cfg   Config
		field string
	}{
		{Config{SizeBytes: 0, Ways: 4, LineBytes: 64}, "SizeBytes"},
		{Config{SizeBytes: 4096, Ways: 0, LineBytes: 64}, "Ways"},
		{Config{SizeBytes: 4096, Ways: 4, LineBytes: 48}, "LineBytes"},       // not power of two
		{Config{SizeBytes: 4096 + 64, Ways: 4, LineBytes: 64}, "Ways"},       // lines % ways != 0
		{Config{SizeBytes: 3 * 64 * 4, Ways: 4, LineBytes: 64}, "SizeBytes"}, // 3 sets: not pow2
		{Config{SizeBytes: 4096, Ways: 32, LineBytes: 64}, "Ways"},           // > MaxWays
		{Config{SizeBytes: 4096, Ways: 4, LineBytes: 64, Policy: LRU + 1}, "Policy"},
	}
	for i, tc := range bad {
		if ce := tc.cfg.Validate(); ce == nil || ce.Field != tc.field {
			t.Errorf("case %d: Validate() = %v, want a %s error", i, ce, tc.field)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New did not panic", i)
				}
			}()
			New(tc.cfg)
		}()
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(small())
	hit, _ := c.Access(0x1000, false, 0)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _ = c.Access(0x1000, false, 0)
	if !hit {
		t.Fatal("second access missed")
	}
	if !c.Lookup(0x1000) {
		t.Fatal("Lookup false after fill")
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	c := New(small())
	c.Access(0x1000, false, 0)
	if hit, _ := c.Access(0x1020, false, 0); !hit {
		t.Fatal("offset within same line missed")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small()) // 16 sets, 4 ways
	sets := uint64(c.Sets())
	// Fill one set with 4 distinct tags, touch the first again, then
	// insert a 5th: the victim must be the 2nd (LRU), not the 1st.
	base := mem.Addr(0)
	stride := mem.Addr(sets * 64)
	for i := 0; i < 4; i++ {
		c.Access(base+mem.Addr(i)*stride, false, 0)
	}
	c.Access(base, false, 0)          // refresh tag 0
	c.Access(base+4*stride, false, 0) // evicts tag 1
	if hit, _ := c.Access(base, false, 0); !hit {
		t.Fatal("MRU line was evicted")
	}
	if hit, _ := c.Access(base+1*stride, false, 0); hit {
		t.Fatal("LRU line survived")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(small())
	sets := uint64(c.Sets())
	stride := mem.Addr(sets * 64)
	c.Access(0, true, 7) // dirty with meta 7
	for i := 1; i <= 4; i++ {
		_, ev := c.Access(mem.Addr(i)*stride, false, 0)
		if i < 4 {
			if ev != nil {
				t.Fatalf("unexpected eviction at fill %d", i)
			}
			continue
		}
		if ev == nil {
			t.Fatal("dirty eviction not reported")
		}
		if ev.Addr != 0 || !ev.Dirty || ev.Meta != 7 {
			t.Fatalf("eviction = %+v", ev)
		}
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	c := New(small())
	sets := uint64(c.Sets())
	stride := mem.Addr(sets * 64)
	for i := 0; i <= 4; i++ {
		if _, ev := c.Access(mem.Addr(i)*stride, false, 0); ev != nil {
			t.Fatal("clean eviction produced a write-back")
		}
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := New(small())
	c.Access(0x40, false, 0)
	c.Access(0x40, true, 0) // write hit dirties the line
	ev := c.Invalidate(0x40)
	if ev == nil || !ev.Dirty {
		t.Fatal("write hit did not dirty the line")
	}
}

func TestFill(t *testing.T) {
	c := New(small())
	if ev := c.Fill(0x80, true, 3); ev != nil {
		t.Fatal("fill into empty cache evicted")
	}
	if !c.Lookup(0x80) {
		t.Fatal("fill did not insert")
	}
	// Fill of a present line only upgrades dirtiness.
	c.Fill(0x80, false, 3)
	ev := c.Invalidate(0x80)
	if ev == nil || !ev.Dirty {
		t.Fatal("fill cleared dirty bit")
	}
	if c.Stats().Accesses != 0 {
		t.Fatal("Fill counted as demand access")
	}
}

func TestInvalidateMissing(t *testing.T) {
	c := New(small())
	if ev := c.Invalidate(0xdead000); ev != nil {
		t.Fatal("invalidate of absent line returned eviction")
	}
}

func TestFlushPage(t *testing.T) {
	cfg := Config{Name: "big", SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, Policy: LRU}
	c := New(cfg)
	// Touch every line of one page, some dirty.
	page := mem.Addr(0x7000000)
	for i := 0; i < mem.LinesPerPage; i++ {
		c.Access(page+mem.Addr(i*64), i%2 == 0, 0)
	}
	evs := c.FlushPage(page + 128) // any address within the page
	if len(evs) != mem.LinesPerPage/2 {
		t.Fatalf("flushed %d dirty lines, want %d", len(evs), mem.LinesPerPage/2)
	}
	for i := 0; i < mem.LinesPerPage; i++ {
		if c.Lookup(page + mem.Addr(i*64)) {
			t.Fatal("line survived page flush")
		}
	}
}

func TestOccupancyBounded(t *testing.T) {
	c := New(small())
	for i := 0; i < 10000; i++ {
		c.Access(mem.Addr(i)*64, false, 0)
	}
	max := 4096 / 64
	if got := c.Occupancy(); got != max {
		t.Fatalf("occupancy %d, want full %d", got, max)
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(small())
	c.Access(0, false, 0)
	c.Access(0, false, 0)
	c.Access(0, true, 0)
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 || st.Fills != 1 || st.WriteHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAddrRoundTripProperty(t *testing.T) {
	// Property: after accessing any address, the cache holds exactly
	// that line (Lookup true for every offset in the line).
	f := func(raw uint64) bool {
		c := New(small())
		a := mem.Addr(raw % (1 << 40))
		c.Access(a, false, 0)
		return c.Lookup(a) && c.Lookup(mem.LineAddr(a)) && c.Lookup(mem.LineAddr(a)+63)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionAddressInSameSetProperty(t *testing.T) {
	// Property: a reported eviction's address maps to the same set as
	// the access that displaced it.
	f := func(raw uint64, n uint8) bool {
		c := New(small())
		base := mem.Addr(raw % (1 << 40))
		sets := uint64(c.Sets())
		stride := mem.Addr(sets * 64)
		for i := 0; i < int(n%8)+5; i++ {
			_, ev := c.Access(base+mem.Addr(i)*stride, true, 0)
			if ev != nil {
				setOf := func(a mem.Addr) uint64 { return (uint64(a) >> 6) & (sets - 1) }
				if setOf(ev.Addr) != setOf(base) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || (LRU+1).String() != "Policy(1)" {
		t.Fatal("policy names wrong")
	}
}

// refCache is the naive reference model: per-line structs, a global
// tick stamped on every demand hit and every fill, and a victim that
// is the first invalid way or else the minimum stamp. Cache must agree
// with it on every result and counter.
type refCache struct {
	sets  [][]refLine
	tick  uint64
	stats Stats
}

type refLine struct {
	valid, dirty bool
	line         uint64 // line address (addr / 64)
	meta         uint8
	stamp        uint64
}

func newRef(cfg Config) *refCache {
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	r := &refCache{sets: make([][]refLine, nsets)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) find(a mem.Addr) (set []refLine, way int) {
	line := uint64(a) / 64
	set = r.sets[line%uint64(len(r.sets))]
	for w := range set {
		if set[w].valid && set[w].line == line {
			return set, w
		}
	}
	return set, -1
}

func (r *refCache) access(a mem.Addr, write bool, meta uint8) (bool, *Eviction) {
	r.stats.Accesses++
	r.tick++
	set, w := r.find(a)
	if w >= 0 {
		set[w].stamp = r.tick
		if write {
			set[w].dirty = true
			set[w].meta = meta
			r.stats.WriteHits++
		}
		return true, nil
	}
	r.stats.Misses++
	if write {
		r.stats.WriteMiss++
	}
	return false, r.fill(set, a, write, meta)
}

func (r *refCache) fillLine(a mem.Addr, dirty bool, meta uint8) *Eviction {
	r.tick++
	set, w := r.find(a)
	if w >= 0 {
		if dirty {
			set[w].dirty = true
		}
		set[w].meta = meta
		return nil
	}
	return r.fill(set, a, dirty, meta)
}

func (r *refCache) fill(set []refLine, a mem.Addr, dirty bool, meta uint8) *Eviction {
	victim := -1
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := range set {
			if set[w].stamp < set[victim].stamp {
				victim = w
			}
		}
	}
	var ev *Eviction
	if v := set[victim]; v.valid && v.dirty {
		r.stats.Evictions++
		ev = &Eviction{Addr: mem.Addr(v.line * 64), Dirty: true, Meta: v.meta}
	}
	set[victim] = refLine{valid: true, dirty: dirty, line: uint64(a) / 64, meta: meta, stamp: r.tick}
	r.stats.Fills++
	return ev
}

func (r *refCache) invalidate(a mem.Addr) *Eviction {
	set, w := r.find(a)
	if w < 0 {
		return nil
	}
	r.stats.Invalidate++
	var ev *Eviction
	if set[w].dirty {
		ev = &Eviction{Addr: mem.Addr(set[w].line * 64), Dirty: true, Meta: set[w].meta}
	}
	set[w] = refLine{}
	return ev
}

func (r *refCache) flushPage(a mem.Addr) []Eviction {
	var evs []Eviction
	for la := mem.PageAddr(a); la < mem.PageAddr(a)+mem.PageBytes; la += 64 {
		set, w := r.find(la)
		if w < 0 {
			continue
		}
		r.stats.Flushes++
		if set[w].dirty {
			evs = append(evs, Eviction{Addr: la, Dirty: true, Meta: set[w].meta})
		}
		set[w] = refLine{}
	}
	return evs
}

func sameEviction(got, want *Eviction) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return *got == *want
}

// TestMatchesReference drives Cache and refCache with the same random
// Access/Fill/Invalidate/FlushPage streams on every associativity from
// direct-mapped to MaxWays and requires identical hits, evictions and
// counters after every operation.
func TestMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for _, sets := range []int{1, 8} {
			cfg := Config{Name: "diff", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64}
			c, ref := New(cfg), newRef(cfg)
			rng := rand.New(rand.NewPCG(uint64(ways), uint64(sets)))
			// Three times the capacity in lines, spread over a few pages,
			// so hits, conflict evictions and page flushes all occur.
			span := uint64(3 * sets * ways)
			for op := 0; op < 50_000; op++ {
				a := mem.Addr(rng.Uint64N(span)*64 + rng.Uint64N(64))
				meta := uint8(rng.UintN(4))
				switch k := rng.UintN(100); {
				case k < 60:
					write := rng.UintN(3) == 0
					hit, ev := c.Access(a, write, meta)
					wantHit, wantEv := ref.access(a, write, meta)
					if hit != wantHit || !sameEviction(ev, wantEv) {
						t.Fatalf("%d ways, %d sets, op %d: Access(%#x) = %v, %+v; reference %v, %+v",
							ways, sets, op, a, hit, ev, wantHit, wantEv)
					}
				case k < 90:
					dirty := rng.UintN(2) == 0
					ev, wantEv := c.Fill(a, dirty, meta), ref.fillLine(a, dirty, meta)
					if !sameEviction(ev, wantEv) {
						t.Fatalf("%d ways, %d sets, op %d: Fill(%#x) = %+v; reference %+v", ways, sets, op, a, ev, wantEv)
					}
				case k < 98:
					ev, wantEv := c.Invalidate(a), ref.invalidate(a)
					if !sameEviction(ev, wantEv) {
						t.Fatalf("%d ways, %d sets, op %d: Invalidate(%#x) = %+v; reference %+v", ways, sets, op, a, ev, wantEv)
					}
				default:
					evs, wantEvs := c.FlushPage(a), ref.flushPage(a)
					if len(evs) != len(wantEvs) {
						t.Fatalf("%d ways, %d sets, op %d: FlushPage(%#x) = %+v; reference %+v", ways, sets, op, a, evs, wantEvs)
					}
					for i := range evs {
						if evs[i] != wantEvs[i] {
							t.Fatalf("%d ways, %d sets, op %d: FlushPage(%#x) = %+v; reference %+v", ways, sets, op, a, evs, wantEvs)
						}
					}
				}
				if c.Stats() != ref.stats {
					t.Fatalf("%d ways, %d sets, op %d: stats %+v; reference %+v", ways, sets, op, c.Stats(), ref.stats)
				}
			}
		}
	}
}

// TestMissPathAllocFree: the miss path — a fill that evicts a dirty
// line, through both Access and Fill — must not allocate.
func TestMissPathAllocFree(t *testing.T) {
	c := New(Config{Name: "allocs", SizeBytes: 16 * 64 * 16, Ways: 16, LineBytes: 64})
	stride := mem.Addr(c.Sets() * 64)
	var i mem.Addr
	allocs := testing.AllocsPerRun(1000, func() {
		c.Access(i*stride, true, 1)
		c.Fill((i+1000)*stride, true, 0)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Access/Fill miss path allocates %v times per run", allocs)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("the loop never evicted a dirty line")
	}
}

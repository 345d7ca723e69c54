// Package vm models the virtual-memory half of Banshee's
// software/hardware co-design: page-table entries extended with the
// DRAM-cache mapping bits (a cached bit and the way, §3.2), per-core
// TLBs whose copies of those bits go stale until a shootdown (the lazy
// coherence of §3.4), and the cost of the software routines that keep
// them in sync.
//
// Translation is the identity (the caches index by the traces' virtual
// addresses), so the only page-table state is the mapping extension:
// one byte per touched page (bit 7 cached, bits 0–6 the way), copied
// into a TLB entry. The page size comes from PageTable.DefaultLarge.
//
// Pages are keyed in 4 KB units: a 4 KB page by its page number, a
// 2 MB page by the number of its first 4 KB page. SetCached takes a key
// in the same units, so a 2 MB-page scheme (Banshee 2M) flushing over
// 4 KB data pages updates only the PTE of its region's first 4 KB page.
//
// No page is aliased, so every frame has at most one PTE: the OS
// reverse map of §3.4 reduces to the key lookup, and a flush touches 0
// or 1 PTE per remapped page.
package vm

import (
	"fmt"

	"banshee/internal/mem"
	"banshee/internal/util"
)

// cachedBit marks a cached page in a mapping byte; the low bits hold
// the way.
const cachedBit = 0x80

// MaxWays is the largest DRAM-cache associativity whose way numbers fit
// a mapping byte.
const MaxWays = cachedBit

// PTE is the Banshee-visible content of a page-table entry, or of a
// TLB's possibly stale copy of one.
type PTE struct {
	Size   mem.PageSize
	Cached bool
	Way    uint8
}

// Mapping converts the PTE extension to the request-carried form.
func (p PTE) Mapping() mem.Mapping {
	return mem.Mapping{Known: true, Cached: p.Cached, Way: p.Way}
}

// PageTable holds the mapping byte of every page touched so far.
type PageTable struct {
	bits util.Flat64[uint8] // page key → mapping byte

	// DefaultLarge makes every translation use 2 MB pages (the §5.4.1
	// "all data resides on large pages" experiment).
	DefaultLarge bool
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable { return &PageTable{} }

// key returns vaddr's page key and page size.
func (pt *PageTable) key(vaddr mem.Addr) (uint64, mem.PageSize) {
	if pt.DefaultLarge {
		return mem.LargePageNum(vaddr) * mem.PagesPerLargePage, mem.Page2M
	}
	return mem.PageNum(vaddr), mem.Page4K
}

// pte decodes mapping byte m of a page of the given size.
func pte(m uint8, size mem.PageSize) PTE {
	return PTE{Size: size, Cached: m&cachedBit != 0, Way: m &^ cachedBit}
}

// Translate returns vaddr's PTE, creating an uncached one on first
// touch.
func (pt *PageTable) Translate(vaddr mem.Addr) PTE {
	k, size := pt.key(vaddr)
	return pte(*pt.bits.Ptr(k), size)
}

// SetCached sets the mapping bits of the PTE keyed frame, if one exists,
// and returns how many PTEs it touched (0 or 1). It never creates a
// PTE. This is the core of the software PTE-update routine a tag-buffer
// flush runs; way must be below MaxWays.
func (pt *PageTable) SetCached(frame uint64, cached bool, way uint8) int {
	p := pt.bits.GetPtr(frame)
	if p == nil {
		return 0
	}
	*p = way
	if cached {
		*p |= cachedBit
	}
	return 1
}

// TLB is one core's translation lookaside buffer: fully associative,
// exact LRU, holding each entry's mapping byte as copied at fill time,
// so a PTE update stays invisible to it until Flush. The simulator
// charges the miss timing. An index table makes hits O(1); recency is
// an intrusive MRU list over slots, so a miss evicts the LRU tail.
// Only Flush invalidates, so the valid entries are always the prefix
// [0, filled) and a TLB that is not yet full fills at the frontier.
type TLB struct {
	keys       []uint64
	bits       []uint8 // mapping-byte copies: stale until Flush
	next, prev []int32
	head, tail int32 // MRU and LRU ends of the recency list
	filled     int
	index      util.Flat64[int32] // page key → slot, mirrors [0, filled)

	Hits, Misses uint64
	Shootdowns   uint64
}

// NewTLB returns a TLB with n entries. n must be positive.
func NewTLB(n int) *TLB {
	if n <= 0 {
		panic(fmt.Sprintf("vm: TLB size must be positive, got %d", n))
	}
	return &TLB{
		keys:  make([]uint64, n),
		bits:  make([]uint8, n),
		next:  make([]int32, n),
		prev:  make([]int32, n),
		head:  -1,
		tail:  -1,
		index: *util.NewFlat64[int32](n),
	}
}

// touch moves slot i to the MRU end of the recency list.
func (t *TLB) touch(i int32) {
	if t.head == i {
		return
	}
	p, n := t.prev[i], t.next[i] // i is not head, so p >= 0
	t.next[p] = n
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
	t.pushFront(i)
}

// pushFront links a fresh slot at the MRU end.
func (t *TLB) pushFront(i int32) {
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head >= 0 {
		t.prev[t.head] = i
	} else {
		t.tail = i
	}
	t.head = i
}

// Lookup translates vaddr through the TLB, filling from the page table
// on a miss. It returns the (possibly stale) PTE copy and whether the
// translation hit in the TLB.
func (t *TLB) Lookup(vaddr mem.Addr, pt *PageTable) (PTE, bool) {
	key, size := pt.key(vaddr)
	if i, ok := t.index.Get(key); ok {
		t.touch(i)
		t.Hits++
		return pte(t.bits[i], size), true
	}
	t.Misses++
	m := *pt.bits.Ptr(key)
	var victim int32
	if t.filled < len(t.keys) {
		victim = int32(t.filled)
		t.filled++
		t.pushFront(victim)
	} else {
		victim = t.tail
		t.index.Delete(t.keys[victim])
		t.touch(victim)
	}
	t.keys[victim] = key
	t.bits[victim] = m
	t.index.Put(key, victim)
	return pte(m, size), false
}

// Flush invalidates every entry (a TLB shootdown's effect on this core).
func (t *TLB) Flush() {
	t.Shootdowns++
	t.filled = 0
	t.head, t.tail = -1, -1
	t.index.Clear()
}

// CostModel holds the software-cost parameters of §5.1 (Table 3),
// already converted to CPU cycles by the caller.
type CostModel struct {
	PTEUpdateCycles    uint64 // whole tag-buffer flush routine (20 µs default)
	ShootdownInitiator uint64 // 4 µs default
	ShootdownSlave     uint64 // 1 µs default
	PageWalkCycles     uint64 // TLB miss penalty, 4 KB and 2 MB pages alike
	PerPTETouchCycles  uint64 // incremental cost per PTE updated in a flush
}

// DefaultCostModel returns the paper's Table 3 costs at the given clock.
func DefaultCostModel(cpuMHz float64) CostModel {
	us := func(n float64) uint64 { return uint64(n * cpuMHz) } // µs × MHz = cycles
	return CostModel{
		PTEUpdateCycles:    us(20),
		ShootdownInitiator: us(4),
		ShootdownSlave:     us(1),
		PageWalkCycles:     100,
		PerPTETouchCycles:  30,
	}
}

// Package cache implements the set-associative SRAM caches of the
// simulated chip (L1I/L1D, L2, shared L3), managed at 64 B line
// granularity with write-back/write-allocate semantics. The same type
// also backs small hardware tables elsewhere in the simulator (e.g. TLBs
// and Banshee's tag buffer embed the replacement machinery via their own
// structures, but the L-level caches all use Cache directly).
//
// Beyond plain lookup the package supports the operations DRAM-cache
// schemes need from the on-chip hierarchy: flushing all lines of a
// physical page (HMA's address-consistency scrub, large-page
// reconfiguration) and tagging lines with metadata bits (the per-line
// page-size bit of §4.3 used to route LLC dirty evictions).
//
// Storage is struct-of-arrays over one flat backing allocation (tags
// and packed flag/meta bytes in parallel slices indexed by
// set×ways+way), so the way scan on every access walks contiguous
// memory instead of hopping across per-set slice headers. Replacement
// is exact LRU kept as one recency word per set — see DESIGN.md §10
// for the layout contract.
package cache

import (
	"fmt"
	"math/bits"

	"banshee/internal/errs"
	"banshee/internal/mem"
)

// Policy selects the victim-choice algorithm. LRU is the only one.
type Policy uint8

// LRU evicts the least recently used line: the one whose last demand
// access or fill is oldest.
const LRU Policy = 0

// MaxWays bounds the associativity: a set's recency word holds one
// 4-bit way ID per way, and 16 of them fill a uint64.
const MaxWays = 16

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == LRU {
		return "LRU"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int // 1..MaxWays
	LineBytes int
	Policy    Policy // must be LRU
	Seed      uint64 // unused: replacement is deterministic
}

// Validate reports the first rule c breaks as an *errs.ConfigError
// whose Field names the Config field at fault ("SizeBytes", "Ways",
// "LineBytes" or "Policy"), or nil when c is a valid cache.
func (c Config) Validate() *errs.ConfigError {
	switch {
	case c.SizeBytes <= 0:
		return errs.Configf("SizeBytes", "cache %q: size must be positive, got %d", c.Name, c.SizeBytes)
	case c.Ways <= 0:
		return errs.Configf("Ways", "cache %q: ways must be positive, got %d", c.Name, c.Ways)
	case c.Ways > MaxWays:
		return errs.Configf("Ways", "cache %q: at most %d ways, got %d", c.Name, MaxWays, c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return errs.Configf("LineBytes", "cache %q: line bytes must be a positive power of two, got %d", c.Name, c.LineBytes)
	case c.Policy != LRU:
		return errs.Configf("Policy", "cache %q: unsupported replacement policy %v", c.Name, c.Policy)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Ways != 0 {
		return errs.Configf("Ways", "cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		return errs.Configf("SizeBytes", "cache %q: set count %d must be a positive power of two", c.Name, sets)
	}
	return nil
}

// Eviction describes a line displaced by a fill. Pointers returned by
// Access, Fill, and Invalidate reference a per-cache scratch value that
// the next call overwrites — consume (or copy) an eviction before
// touching the same cache again. The simulator's per-event loop runs
// billions of evictions per sweep; reusing the scratch keeps the loop
// allocation-free.
type Eviction struct {
	Addr  mem.Addr
	Dirty bool
	Meta  uint8
}

// Line state bits in the flags array.
const (
	fValid uint8 = 1 << iota
	fDirty
)

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Evictions  uint64 // dirty evictions (write-backs)
	Fills      uint64
	Flushes    uint64 // lines removed by explicit flush operations
	WriteHits  uint64
	WriteMiss  uint64
	Invalidate uint64
}

// Bit patterns over the 16 nibbles of a recency word.
const (
	nibbleLow  = 0x1111111111111111 // the low bit of every nibble
	nibbleHigh = 0x8888888888888888 // the high bit of every nibble
	identity   = 0xFEDCBA9876543210 // nibble i holds way i
)

// Cache is a single set-associative cache. Not safe for concurrent use.
//
// Line state is struct-of-arrays: slot s = set×Ways+way holds its tag
// in tags[s] and valid/dirty bits plus caller metadata in
// flags[s]/meta[s]. Replacement state is one word per set:
// recency[set] lists the set's way IDs 4 bits each, most recently used
// in the low nibble, least recently used in nibble Ways−1. The nibbles
// above Ways−1 stay zero.
type Cache struct {
	cfg      Config
	tags     []uint64
	flags    []uint8
	meta     []uint8
	recency  []uint64
	ways     int
	nsets    int
	setMask  uint64
	setBits  uint // precomputed popcount(setMask): the tag shift
	lineBits uint
	lruShift uint   // 4×(Ways−1): the bit offset of the LRU nibble
	recMask  uint64 // the low 4×Ways bits, the nibbles a recency word uses
	stats    Stats
	ev       Eviction // scratch returned by Access/Fill/Invalidate
}

// New builds a cache; it panics on invalid configuration (a setup bug).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	n := nsets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		tags:     make([]uint64, n),
		flags:    make([]uint8, n),
		meta:     make([]uint8, n),
		recency:  make([]uint64, nsets),
		ways:     cfg.Ways,
		nsets:    nsets,
		setMask:  uint64(nsets - 1),
		lruShift: uint(4 * (cfg.Ways - 1)),
		recMask:  ^uint64(0) >> (64 - 4*cfg.Ways),
	}
	c.setBits = uint(bits.OnesCount64(c.setMask))
	c.lineBits = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	for i := range c.recency {
		c.recency[i] = identity & c.recMask
	}
	return c
}

// Config returns the construction configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets (diagnostic).
func (c *Cache) Sets() int { return c.nsets }

func (c *Cache) index(a mem.Addr) (set uint64, tag uint64) {
	l := uint64(a) >> c.lineBits
	return l & c.setMask, l >> c.setBits
}

func (c *Cache) addrOf(set uint64, tag uint64) mem.Addr {
	return mem.Addr((tag<<c.setBits | set) << c.lineBits)
}

// touch makes way the most recently used way of set. The way's nibble
// is found without a loop: XOR turns it into the word's only zero
// nibble below Ways, and the lowest nibble flagged by the SWAR
// zero-nibble test (x−0x1…1) &^ x & 0x8…8 is exactly the lowest zero
// nibble. The nibbles below it shift up by one and the way goes in
// nibble 0.
func (c *Cache) touch(set uint64, way int) {
	r := c.recency[set]
	x := r ^ uint64(way)*nibbleLow
	p := uint(bits.TrailingZeros64((x-nibbleLow)&^x&nibbleHigh)) &^ 3
	below := uint64(1)<<p - 1
	c.recency[set] = r&^(below<<4|0xF) | (r&below)<<4 | uint64(way)
}

// Lookup reports whether a's line is present without changing any state.
func (c *Cache) Lookup(a mem.Addr) bool {
	set, tag := c.index(a)
	base := int(set) * c.ways
	for s := base; s < base+c.ways; s++ {
		if c.flags[s]&fValid != 0 && c.tags[s] == tag {
			return true
		}
	}
	return false
}

// Access performs a demand read or write with allocate-on-miss. It
// returns whether the access hit, and (on a miss that displaced a dirty
// line) the eviction the caller must write back. meta is stored on the
// line on fill and on write (carrying e.g. the page-size bit downstream).
//
// The way scan doubles as the victim pre-selection: by the time a miss
// is known, every way's valid bit has been read, so the first invalid
// way (the preferred victim) falls out of the same pass instead of a
// second scan in fill.
func (c *Cache) Access(a mem.Addr, write bool, meta uint8) (hit bool, ev *Eviction) {
	c.stats.Accesses++
	set, tag := c.index(a)
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	flags := c.flags[base : base+c.ways]
	invalid := -1
	for i, tg := range tags {
		if flags[i]&fValid == 0 {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if tg == tag {
			s := base + i
			c.touch(set, i)
			if write {
				c.flags[s] |= fDirty
				c.meta[s] = meta
				c.stats.WriteHits++
			}
			return true, nil
		}
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMiss++
	}
	ev = c.fill(set, invalid, tag, write, meta)
	return false, ev
}

// Fill inserts a's line without counting a demand access (used when an
// outer level pushes data in, e.g. prefetch-like flows in tests). A
// Fill that finds the line present only merges dirtiness and meta; it
// leaves the line's recency alone.
func (c *Cache) Fill(a mem.Addr, dirty bool, meta uint8) *Eviction {
	set, tag := c.index(a)
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	flags := c.flags[base : base+c.ways]
	invalid := -1
	for i, tg := range tags {
		if flags[i]&fValid == 0 {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if tg == tag {
			s := base + i
			if dirty {
				c.flags[s] |= fDirty
			}
			c.meta[s] = meta
			return nil
		}
	}
	return c.fill(set, invalid, tag, dirty, meta)
}

// fill inserts into set and makes the filled way the most recently
// used. invalid is the first invalid way found by the caller's scan
// (-1 when the set is full) and is preferred; when the set is full the
// victim is the LRU nibble of the recency word, and moving it to the
// front is a plain rotate.
func (c *Cache) fill(set uint64, invalid int, tag uint64, dirty bool, meta uint8) *Eviction {
	var way int
	if invalid >= 0 {
		way = invalid
		c.touch(set, way)
	} else {
		r := c.recency[set]
		way = int(r >> c.lruShift)
		c.recency[set] = r<<4&c.recMask | uint64(way)
	}
	victim := int(set)*c.ways + way
	var ev *Eviction
	if c.flags[victim]&(fValid|fDirty) == fValid|fDirty {
		c.stats.Evictions++
		c.ev = Eviction{Addr: c.addrOf(set, c.tags[victim]), Dirty: true, Meta: c.meta[victim]}
		ev = &c.ev
	}
	c.tags[victim] = tag
	c.meta[victim] = meta
	if dirty {
		c.flags[victim] = fValid | fDirty
	} else {
		c.flags[victim] = fValid
	}
	c.stats.Fills++
	return ev
}

// Invalidate drops a's line if present, returning a write-back if it was
// dirty.
func (c *Cache) Invalidate(a mem.Addr) *Eviction {
	set, tag := c.index(a)
	base := int(set) * c.ways
	for s := base; s < base+c.ways; s++ {
		if c.flags[s]&fValid != 0 && c.tags[s] == tag {
			c.stats.Invalidate++
			var ev *Eviction
			if c.flags[s]&fDirty != 0 {
				c.ev = Eviction{Addr: c.addrOf(set, c.tags[s]), Dirty: true, Meta: c.meta[s]}
				ev = &c.ev
			}
			c.clearSlot(s)
			return ev
		}
	}
	return nil
}

// clearSlot resets one line slot to the invalid state. Its recency
// nibble stays where it is: an invalid way is always chosen before the
// recency order is consulted, and refilling it moves it to the front.
func (c *Cache) clearSlot(s int) {
	c.tags[s] = 0
	c.flags[s] = 0
	c.meta[s] = 0
}

// FlushPage removes every line belonging to the 4 KB page containing a,
// returning dirty lines that must be written back. This is the cache
// scrub HMA-style remapping requires for address consistency, and the
// flush Banshee needs on large-page reconfiguration.
func (c *Cache) FlushPage(a mem.Addr) []Eviction {
	var evs []Eviction
	base := mem.PageAddr(a)
	for off := 0; off < mem.PageBytes; off += c.cfg.LineBytes {
		la := base + mem.Addr(off)
		set, tag := c.index(la)
		sb := int(set) * c.ways
		for s := sb; s < sb+c.ways; s++ {
			if c.flags[s]&fValid != 0 && c.tags[s] == tag {
				c.stats.Flushes++
				if c.flags[s]&fDirty != 0 {
					evs = append(evs, Eviction{Addr: la, Dirty: true, Meta: c.meta[s]})
				}
				c.clearSlot(s)
			}
		}
	}
	return evs
}

// Occupancy returns the number of valid lines (diagnostic, tests).
func (c *Cache) Occupancy() int {
	n := 0
	for _, f := range c.flags {
		if f&fValid != 0 {
			n++
		}
	}
	return n
}

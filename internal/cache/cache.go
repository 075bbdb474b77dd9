// Package cache models the set-associative, CAM-tagged instruction
// and data caches of the paper's XScale-like platform, together with
// the three instruction-fetch disciplines the evaluation compares:
//
//   - baseline: every fetch searches all W tags of one set;
//   - way-placement (the paper's scheme): fetches inside the
//     way-placement area probe exactly one way, selected by address
//     bits, steered by the 1-bit way hint;
//   - way-memoization (Ma et al.): cache lines carry links naming the
//     way of the next fetch, skipping tag checks when a link is valid
//     at the price of a wider data array.
//
// The cache core only records *events* (tag comparisons, data reads,
// fills, link writes); internal/energy turns events into energy.
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects the replacement policy.
type Policy uint8

// Replacement policies. XScale uses round-robin; LRU exists for the
// replacement ablation.
const (
	RoundRobin Policy = iota
	LRU
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LRU:
		return "lru"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config describes one cache's geometry.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	Policy    Policy
}

// Validate checks that the geometry is realisable (power-of-two
// fields, at least one set).
func (c Config) Validate() error {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	if !pow2(c.SizeBytes) || !pow2(c.Ways) || !pow2(c.LineBytes) {
		return fmt.Errorf("cache: size/ways/line must be powers of two, got %d/%d/%d",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.LineBytes < 4 {
		return fmt.Errorf("cache: line size %d below word size", c.LineBytes)
	}
	if c.SizeBytes < c.Ways*c.LineBytes {
		return fmt.Errorf("cache: %dB/%d-way/%dB-line leaves no full set",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// OffsetBits returns the number of line-offset address bits.
func (c Config) OffsetBits() int { return bits.TrailingZeros(uint(c.LineBytes)) }

// SetBits returns the number of set-index address bits.
func (c Config) SetBits() int { return bits.TrailingZeros(uint(c.Sets())) }

// WayBits returns the number of way-select bits used by a
// way-placement access (the tag's least significant bits).
func (c Config) WayBits() int { return bits.TrailingZeros(uint(c.Ways)) }

// TagBits returns the tag width for 32-bit addresses. The paper keeps
// the tag full length: the way-placement bits are *also* part of the
// tag, so a WP probe still verifies the full tag.
func (c Config) TagBits() int { return 32 - c.SetBits() - c.OffsetBits() }

// SetOf returns the set index of an address.
func (c Config) SetOf(addr uint32) int {
	return int(addr>>c.OffsetBits()) & (c.Sets() - 1)
}

// TagOf returns the tag of an address.
func (c Config) TagOf(addr uint32) uint32 {
	return addr >> (c.OffsetBits() + c.SetBits())
}

// WayOf returns the way a way-placed address maps to: the least
// significant WayBits of the tag (section 4.2: "the least significant
// bits from the address tag ... a simple multiplexor can be used to
// select one of 2^N ways given N bits from the tag").
func (c Config) WayOf(addr uint32) int {
	return int(c.TagOf(addr)) & (c.Ways - 1)
}

// LineAddr returns the address of the line containing addr.
func (c Config) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(c.LineBytes-1)
}

// InstrsPerLine returns how many 4-byte instructions fit in a line.
func (c Config) InstrsPerLine() int { return c.LineBytes / 4 }

// LinkBits returns the width of one way-memoization link: way-select
// bits plus a valid bit (6 bits for a 32-way cache).
func (c Config) LinkBits() int { return c.WayBits() + 1 }

// LinkOverhead returns the fraction by which way-memoization links
// enlarge the data array: (instrsPerLine+1) links per line over the
// line's data bits. For 32B lines and 32 ways this is 9*6/256 = 21%,
// the figure quoted in section 5.
func (c Config) LinkOverhead() float64 {
	linkBits := (c.InstrsPerLine() + 1) * c.LinkBits()
	return float64(linkBits) / float64(c.LineBytes*8)
}

// Stats counts the events the energy model charges for.
type Stats struct {
	Fetches uint64 // instruction fetches requested (I-side)

	SameLineHits   uint64 // sequential fetches served without any tag check
	FullSearches   uint64 // accesses comparing all W tags
	SingleSearches uint64 // way-placement accesses comparing 1 tag
	LinkedAccesses uint64 // way-memoization accesses comparing 0 tags
	TagComparisons uint64 // total individual tag comparisons

	Hits      uint64
	Misses    uint64
	LineFills uint64

	DataReads  uint64 // data-array word reads
	DataWrites uint64 // data-array word writes (D-cache)
	Writebacks uint64 // dirty line writebacks (D-cache)

	LinkWrites uint64 // way-memoization link updates
	StaleLinks uint64 // links found invalidated by eviction

	Flushes uint64 // whole-cache invalidations (OS area resizes)

	HintCorrectWP      uint64 // hint=WP and access was WP
	HintCorrectNon     uint64 // hint=non-WP and access was non-WP
	HintMissedSaving   uint64 // hint=non-WP but access was WP (lost saving)
	HintExtraAccess    uint64 // hint=WP but access was non-WP (second access)
	WPAccesses         uint64 // fetches that used the single-tag path
	WPAreaFetches      uint64 // fetches whose address lies in the WP area
	DesignatedFills    uint64 // fills forced into the way-placed way
	NonDesignatedFills uint64 // fills chosen by the replacement policy
}

// MissRate returns misses / (hits+misses).
func (s *Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// addRepeats adds k more copies of the counts accumulated since mark:
// every field grows by k × (s − mark). A field added to Stats must be
// added here too; TestAddRepeatsCoversEveryField checks by reflection.
func (s *Stats) addRepeats(mark *Stats, k uint64) {
	s.Fetches += k * (s.Fetches - mark.Fetches)
	s.SameLineHits += k * (s.SameLineHits - mark.SameLineHits)
	s.FullSearches += k * (s.FullSearches - mark.FullSearches)
	s.SingleSearches += k * (s.SingleSearches - mark.SingleSearches)
	s.LinkedAccesses += k * (s.LinkedAccesses - mark.LinkedAccesses)
	s.TagComparisons += k * (s.TagComparisons - mark.TagComparisons)
	s.Hits += k * (s.Hits - mark.Hits)
	s.Misses += k * (s.Misses - mark.Misses)
	s.LineFills += k * (s.LineFills - mark.LineFills)
	s.DataReads += k * (s.DataReads - mark.DataReads)
	s.DataWrites += k * (s.DataWrites - mark.DataWrites)
	s.Writebacks += k * (s.Writebacks - mark.Writebacks)
	s.LinkWrites += k * (s.LinkWrites - mark.LinkWrites)
	s.StaleLinks += k * (s.StaleLinks - mark.StaleLinks)
	s.Flushes += k * (s.Flushes - mark.Flushes)
	s.HintCorrectWP += k * (s.HintCorrectWP - mark.HintCorrectWP)
	s.HintCorrectNon += k * (s.HintCorrectNon - mark.HintCorrectNon)
	s.HintMissedSaving += k * (s.HintMissedSaving - mark.HintMissedSaving)
	s.HintExtraAccess += k * (s.HintExtraAccess - mark.HintExtraAccess)
	s.WPAccesses += k * (s.WPAccesses - mark.WPAccesses)
	s.WPAreaFetches += k * (s.WPAreaFetches - mark.WPAreaFetches)
	s.DesignatedFills += k * (s.DesignatedFills - mark.DesignatedFills)
	s.NonDesignatedFills += k * (s.NonDesignatedFills - mark.NonDesignatedFills)
}

type link struct {
	gen   uint64 // matches the target line's generation when still valid
	set   int32
	way   int32
	valid bool
}

type line struct {
	valid   bool
	dirty   bool
	tag     uint32
	lastUse uint64
	gen     uint64 // bumped on every (re)fill, invalidating inbound links
}

// lineLinks are one line's outbound way-memoization links. They live
// in a side array beside the lines, allocated only by way-memoization
// caches, so every other cache keeps its lines at 24 bytes.
type lineLinks struct {
	seq   link   // way of the next sequential line
	slots []link // per-instruction branch links, allocated on first write
}

// Cache is one cache array instance.
type Cache struct {
	Cfg   Config
	Stats Stats

	sets  [][]line
	links []lineLinks // way-memoization only: indexed set*Ways+way
	rr    []int       // round-robin victim pointer per set
	mru   []int       // most recently touched/filled way per set (probe shortcut)
	tick  uint64
	gen   uint64

	// Address decomposition, precomputed from Cfg at construction: the
	// Config methods derive shifts and masks from first principles on
	// every call, which is measurable on the per-fetch path.
	offBits  uint32
	setMask  uint32
	tagShift uint32
	lineMask uint32
	wayMask  uint32
	slotMask uint32
}

// setOf/tagOf/wayOf/lineAddr/slotOf mirror the Config methods of the
// same names using the precomputed masks (hot-path variants).
func (c *Cache) setOf(addr uint32) int       { return int((addr >> c.offBits) & c.setMask) }
func (c *Cache) tagOf(addr uint32) uint32    { return addr >> c.tagShift }
func (c *Cache) wayOf(addr uint32) int       { return int((addr >> c.tagShift) & c.wayMask) }
func (c *Cache) lineAddr(addr uint32) uint32 { return addr & c.lineMask }
func (c *Cache) slotOf(addr uint32) int      { return int((addr >> 2) & c.slotMask) }

// New builds an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{Cfg: cfg}
	c.offBits = uint32(cfg.OffsetBits())
	c.setMask = uint32(cfg.Sets() - 1)
	c.tagShift = uint32(cfg.OffsetBits() + cfg.SetBits())
	c.lineMask = ^uint32(cfg.LineBytes - 1)
	c.wayMask = uint32(cfg.Ways - 1)
	c.slotMask = uint32(cfg.InstrsPerLine() - 1)
	c.sets = make([][]line, cfg.Sets())
	storage := make([]line, cfg.Sets()*cfg.Ways)
	for i := range c.sets {
		c.sets[i], storage = storage[:cfg.Ways:cfg.Ways], storage[cfg.Ways:]
	}
	c.rr = make([]int, cfg.Sets())
	c.mru = make([]int, cfg.Sets())
	return c, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// probeAll compares the tag against every way of the set, counting W
// comparisons, and returns the matching way.
func (c *Cache) probeAll(set int, tag uint32) (int, bool) {
	c.Stats.TagComparisons += uint64(c.Cfg.Ways)
	c.Stats.FullSearches++
	// Most-recently-used shortcut. All W comparisons are charged above
	// regardless — in hardware they happen in parallel — and a tag is
	// resident in at most one way (fills only follow a full-search
	// miss, and way-placed lines only ever fill their designated way),
	// so checking the MRU way first cannot change the outcome.
	if w := c.mru[set]; w < len(c.sets[set]) {
		l := &c.sets[set][w]
		if l.valid && l.tag == tag {
			return w, true
		}
	}
	for w := range c.sets[set] {
		l := &c.sets[set][w]
		if l.valid && l.tag == tag {
			return w, true
		}
	}
	return -1, false
}

// probeOne compares the tag against a single way, counting one
// comparison.
func (c *Cache) probeOne(set, way int, tag uint32) bool {
	c.Stats.TagComparisons++
	c.Stats.SingleSearches++
	l := &c.sets[set][way]
	return l.valid && l.tag == tag
}

// Contains reports (without charging any events) whether the line
// holding addr is present, and in which way. Test/diagnostic helper.
func (c *Cache) Contains(addr uint32) (way int, ok bool) {
	set, tag := c.Cfg.SetOf(addr), c.Cfg.TagOf(addr)
	for w := range c.sets[set] {
		l := &c.sets[set][w]
		if l.valid && l.tag == tag {
			return w, true
		}
	}
	return -1, false
}

// victim selects a way to evict in the set according to the policy.
func (c *Cache) victim(set int) int {
	ways := c.sets[set]
	// Prefer an invalid way.
	for w := range ways {
		if !ways[w].valid {
			return w
		}
	}
	switch c.Cfg.Policy {
	case LRU:
		best, bestUse := 0, ways[0].lastUse
		for w := 1; w < len(ways); w++ {
			if ways[w].lastUse < bestUse {
				best, bestUse = w, ways[w].lastUse
			}
		}
		return best
	default: // round-robin
		w := c.rr[set]
		c.rr[set] = (w + 1) % c.Cfg.Ways
		return w
	}
}

// fillAt installs the line for addr into (set, way), returning whether
// a dirty line was evicted. The line's generation is bumped so that
// way-memoization links into the old occupant die, and the old
// occupant's own links are cleared.
func (c *Cache) fillAt(set, way int, tag uint32) (evictedDirty bool) {
	l := &c.sets[set][way]
	evictedDirty = l.valid && l.dirty
	c.gen++
	*l = line{valid: true, tag: tag, lastUse: c.tick, gen: c.gen}
	c.clearLinks(set, way)
	c.Stats.LineFills++
	c.mru[set] = way
	return evictedDirty
}

// touch updates LRU state for a hit.
func (c *Cache) touch(set, way int) {
	c.tick++
	c.sets[set][way].lastUse = c.tick
	c.mru[set] = way
}

// checkpoint is the cache half of a fetch engine's repeat mark: the
// counters, the recency clock and the fill generation when the mark
// was taken.
type checkpoint struct {
	stats Stats
	tick  uint64
	gen   uint64
}

func (c *Cache) checkpoint() checkpoint {
	return checkpoint{stats: c.Stats, tick: c.tick, gen: c.gen}
}

// unchangedSince reports whether no line was filled or flushed since
// cp. Every fill and every flush of a valid line bumps gen, and a fetch
// that misses always fills, so the fetches since cp all hit and the
// cache holds exactly the lines it held at cp. Hits change only
// recency (tick, lastUse, mru), which is read only when a miss picks a
// victim.
func (c *Cache) unchangedSince(cp *checkpoint) bool { return c.gen == cp.gen }

// repeatSince charges k more copies of the all-hit fetches made since
// cp: the counters by k × their growth and the recency clock by k ×
// its advance. lastUse and mru keep the values the copy left; a caller
// that replays one more copy afterwards rewrites them exactly as a
// full replay would.
func (c *Cache) repeatSince(cp *checkpoint, k uint64) {
	c.Stats.addRepeats(&cp.stats, k)
	c.tick += k * (c.tick - cp.tick)
}

// lineRef returns the line at (set, way).
func (c *Cache) lineRef(set, way int) *line { return &c.sets[set][way] }

// linksRef returns the way-memoization links of the line at (set, way).
// Only valid on a cache built with links (NewWayMemoization).
func (c *Cache) linksRef(set, way int) *lineLinks { return &c.links[set*c.Cfg.Ways+way] }

// clearLinks invalidates every outbound link of the line at (set, way).
// A cleared slot array is kept for reuse: an all-invalid array and an
// unallocated one mean the same thing to the fetch engine.
func (c *Cache) clearLinks(set, way int) {
	if c.links == nil {
		return
	}
	ll := c.linksRef(set, way)
	ll.seq = link{}
	clear(ll.slots)
}

// Flush invalidates every line. The operating system flushes the
// instruction cache when it resizes the way-placement area (section
// 4.1 lets the OS adjust the area during execution; a flush keeps
// "designated way" placement consistent across the change). Flushes
// are counted so their refill cost shows up in energy and cycles.
func (c *Cache) Flush() {
	for set := range c.sets {
		for way := range c.sets[set] {
			l := &c.sets[set][way]
			if l.valid {
				c.gen++
				*l = line{gen: c.gen}
				c.clearLinks(set, way)
			}
		}
	}
	c.Stats.Flushes++
}

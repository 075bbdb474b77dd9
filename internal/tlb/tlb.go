// Package tlb models the instruction and data translation lookaside
// buffers of the simulated platform: small fully-associative arrays
// (32 entries on the paper's machine).
//
// The I-TLB carries the paper's single-bit extension: a way-placement
// bit per page, set by the operating system for every page inside the
// way-placement area (section 4.1). The area is a multiple of the page
// size, so one bit per page suffices, and the OS can resize it per
// program — or per cache configuration — without touching the binary.
package tlb

import (
	"fmt"
	"math/bits"
)

// Config describes a TLB.
type Config struct {
	Entries   int
	PageBytes int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb: need at least one entry, got %d", c.Entries)
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("tlb: page size must be a power of two, got %d", c.PageBytes)
	}
	return nil
}

// PageShift returns log2 of the page size.
func (c Config) PageShift() int { return bits.TrailingZeros(uint(c.PageBytes)) }

// Stats counts TLB events.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// Invalidates counts whole-TLB invalidations (the OS must issue
	// one whenever it rewrites way-placement bits in the page tables,
	// or resident entries keep delivering the old bits).
	Invalidates uint64
}

// MissRate returns misses/accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// addRepeats adds k more copies of the counts accumulated since mark:
// every field grows by k × (s − mark).
func (s *Stats) addRepeats(mark *Stats, k uint64) {
	s.Accesses += k * (s.Accesses - mark.Accesses)
	s.Hits += k * (s.Hits - mark.Hits)
	s.Misses += k * (s.Misses - mark.Misses)
	s.Invalidates += k * (s.Invalidates - mark.Invalidates)
}

type entry struct {
	valid   bool
	vpn     uint32
	wayBit  bool
	lastUse uint64
}

// TLB is a fully-associative translation buffer with true-LRU
// replacement. Translation itself is the identity (the simulated
// system runs physically mapped); what matters to the evaluation is
// hit/miss timing and the way-placement bit.
type TLB struct {
	Cfg   Config
	Stats Stats

	entries []entry
	tick    uint64

	fastPath
	mark struct {
		stats Stats
		tick  uint64
		fp    fastPath
	}

	// Way-placement area: [wpStart, wpStart+wpSize). Pages whose first
	// byte lies inside get the way-placement bit. Zero size disables.
	wpStart uint32
	wpSize  uint32
}

// fastPath is the single-entry cache in front of the entry scan: the
// page and entry index of the most recent lookup.
type fastPath struct {
	lastValid bool
	lastVPN   uint32
	lastIdx   int
}

// New builds an empty TLB.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TLB{Cfg: cfg, entries: make([]entry, cfg.Entries)}, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// SetWPArea installs the operating system's way-placement area
// decision. size must be a multiple of the page size (the paper makes
// the area page-granular so one bit per I-TLB entry suffices), and the
// area must fit below the top of the 32-bit address space.
//
// SetWPArea only rewrites the page-table side of the bit. Entries
// already resident in the TLB keep the bit they were filled with —
// exactly like hardware — so an OS that changes the area mid-run must
// also call Invalidate, or stale bits survive until eviction.
func (t *TLB) SetWPArea(start, size uint32) error {
	if size%uint32(t.Cfg.PageBytes) != 0 {
		return fmt.Errorf("tlb: way-placement area size %d is not a multiple of the %dB page",
			size, t.Cfg.PageBytes)
	}
	if start%uint32(t.Cfg.PageBytes) != 0 {
		return fmt.Errorf("tlb: way-placement area start %#x is not page-aligned", start)
	}
	if uint64(start)+uint64(size) > 1<<32 {
		return fmt.Errorf("tlb: way-placement area [%#x, %#x+%#x) wraps the 32-bit address space",
			start, start, size)
	}
	t.wpStart, t.wpSize = start, size
	return nil
}

// Invalidate drops every resident entry and the single-entry fast-path
// cache, as an OS TLB-invalidate instruction would. The operating
// system must issue one after any SetWPArea change during execution:
// resident entries carry the way-placement bit they were filled with,
// and serving a stale bit makes the hardware's placement disagree with
// the page tables (see internal/check's coherence invariant).
func (t *TLB) Invalidate() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.fastPath = fastPath{}
	t.Stats.Invalidates++
}

// WPArea returns the installed way-placement area.
func (t *TLB) WPArea() (start, size uint32) { return t.wpStart, t.wpSize }

// pageWayPlaced is what the OS writes into the page tables: the
// way-placement bit for the page containing addr.
func (t *TLB) pageWayPlaced(addr uint32) bool {
	if t.wpSize == 0 {
		return false
	}
	page := addr &^ uint32(t.Cfg.PageBytes-1)
	return page >= t.wpStart && page-t.wpStart < t.wpSize
}

// Lookup translates addr, returning whether it missed (requiring a
// page-table walk) and the page's way-placement bit.
func (t *TLB) Lookup(addr uint32) (miss bool, wayPlaced bool) {
	t.Stats.Accesses++
	t.tick++
	vpn := addr >> t.Cfg.PageShift()
	// Fast path: consecutive fetches overwhelmingly stay on one page.
	if t.lastValid && t.lastVPN == vpn {
		t.Stats.Hits++
		t.entries[t.lastIdx].lastUse = t.tick
		return false, t.entries[t.lastIdx].wayBit
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			t.Stats.Hits++
			e.lastUse = t.tick
			t.lastValid, t.lastVPN, t.lastIdx = true, vpn, i
			return false, e.wayBit
		}
	}
	t.Stats.Misses++
	// Walk and refill: choose the LRU (or first invalid) entry.
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.lastUse < t.entries[victim].lastUse {
			victim = i
		}
	}
	bit := t.pageWayPlaced(addr)
	t.entries[victim] = entry{valid: true, vpn: vpn, wayBit: bit, lastUse: t.tick}
	t.lastValid, t.lastVPN, t.lastIdx = true, vpn, victim
	return true, bit
}

// BulkHits charges n further accesses to the page of the most recent
// Lookup, all hits. It is the batched equivalent of n Lookup calls
// that stay on one page: the single-entry fast path would serve each
// of them, so only the entry's recency and the counters change. The
// caller must have completed at least one Lookup and guarantee the n
// accesses address the same page (sim.RunMulti segments the fetch
// stream so a run never crosses a page boundary).
func (t *TLB) BulkHits(n uint64) {
	if n == 0 || !t.lastValid {
		return
	}
	t.Stats.Accesses += n
	t.Stats.Hits += n
	t.tick += n
	t.entries[t.lastIdx].lastUse = t.tick
}

// Mark records the TLB's state before one copy of a repeated lookup
// sequence is replayed; SkipRepeats then decides whether further copies
// can be charged without replaying them.
func (t *TLB) Mark() {
	t.mark.stats = t.Stats
	t.mark.tick = t.tick
	t.mark.fp = t.fastPath
}

// SkipRepeats charges k more copies of the lookups replayed since Mark,
// without replaying them, and reports whether it did. It refuses unless
// the copy missed nothing, invalidated nothing and left the fast-path
// entry as it found it: then the same entries are resident, each
// further copy takes the same paths and only recency moves. The clock
// advances by k copies' worth of ticks; the caller replays the final
// copy normally so that every entry's lastUse ends where a full replay
// leaves it.
func (t *TLB) SkipRepeats(k uint64) bool {
	m := &t.mark
	if t.Stats.Misses != m.stats.Misses || t.Stats.Invalidates != m.stats.Invalidates ||
		t.fastPath != m.fp {
		return false
	}
	t.Stats.addRepeats(&m.stats, k)
	t.tick += k * (t.tick - m.tick)
	return true
}

// WayPlaced implements cache.WPOracle: the way-placement bit the
// I-TLB delivers for addr. The bit comes from the *resident entry*
// when the page is in the TLB — the hardware reads it from the entry
// in parallel with the cache probe, so a stale entry delivers a stale
// bit. Non-resident pages fall back to the page-table property: the
// walk (charged by the CPU via Lookup, which runs first) installs the
// entry with the current bit before the fetch consumes it. No stats
// are charged; the access was already counted by Lookup.
func (t *TLB) WayPlaced(addr uint32) bool {
	vpn := addr >> t.Cfg.PageShift()
	if t.lastValid && t.lastVPN == vpn {
		return t.entries[t.lastIdx].wayBit
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			return e.wayBit
		}
	}
	return t.pageWayPlaced(addr)
}

// ResidentPage describes one valid TLB entry: the virtual page number
// and the way-placement bit the entry would deliver.
type ResidentPage struct {
	VPN    uint32
	WayBit bool
}

// Resident returns every valid entry, in no particular order, without
// charging any events. Diagnostic helper: internal/check compares each
// resident bit against PageWayPlaced to detect stale way-bits.
func (t *TLB) Resident() []ResidentPage {
	var out []ResidentPage
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid {
			out = append(out, ResidentPage{VPN: e.vpn, WayBit: e.wayBit})
		}
	}
	return out
}

// PageWayPlaced exposes the page-table side of the bit for the page
// containing addr — what a fresh walk would install, independent of
// any resident entry. Diagnostic helper for coherence checks.
func (t *TLB) PageWayPlaced(addr uint32) bool { return t.pageWayPlaced(addr) }

package tlb

import (
	"reflect"
	"testing"
	"testing/quick"
)

func cfg32() Config { return Config{Entries: 32, PageBytes: 1 << 10} }

func TestLookupHitMiss(t *testing.T) {
	b := MustNew(cfg32())
	if miss, _ := b.Lookup(0x1234); !miss {
		t.Error("cold lookup should miss")
	}
	if miss, _ := b.Lookup(0x1234); miss {
		t.Error("warm lookup should hit")
	}
	if miss, _ := b.Lookup(0x1234 + 0x400); !miss {
		t.Error("next page should miss")
	}
	if b.Stats.Accesses != 3 || b.Stats.Hits != 1 || b.Stats.Misses != 2 {
		t.Errorf("stats = %+v", b.Stats)
	}
	if mr := b.Stats.MissRate(); mr < 0.66 || mr > 0.67 {
		t.Errorf("miss rate = %f", mr)
	}
}

func TestLRUEviction(t *testing.T) {
	b := MustNew(Config{Entries: 2, PageBytes: 1 << 10})
	b.Lookup(0x0000) // page 0
	b.Lookup(0x0400) // page 1
	b.Lookup(0x0000) // touch page 0
	b.Lookup(0x0800) // page 2 evicts page 1 (LRU)
	if miss, _ := b.Lookup(0x0000); miss {
		t.Error("recently used page was evicted")
	}
	if miss, _ := b.Lookup(0x0400); !miss {
		t.Error("LRU page survived")
	}
}

func TestWPAreaBit(t *testing.T) {
	b := MustNew(cfg32())
	if err := b.SetWPArea(0x1_0000, 4<<10); err != nil {
		t.Fatalf("SetWPArea: %v", err)
	}
	cases := []struct {
		addr uint32
		want bool
	}{
		{0x1_0000, true},
		{0x1_0000 + 4<<10 - 1, true},
		{0x1_0000 + 4<<10, false},
		{0x0_ffff, false},
		{0, false},
	}
	for _, c := range cases {
		if got := b.WayPlaced(c.addr); got != c.want {
			t.Errorf("WayPlaced(%#x) = %v, want %v", c.addr, got, c.want)
		}
		// The bit delivered by a lookup must agree with the oracle.
		_, bit := b.Lookup(c.addr)
		if bit != c.want {
			t.Errorf("Lookup(%#x) bit = %v, want %v", c.addr, bit, c.want)
		}
	}
}

func TestWPAreaBitSurvivesRefill(t *testing.T) {
	// After an entry is evicted and refilled, the bit must still be
	// right (it comes from the page tables, not from stale state).
	b := MustNew(Config{Entries: 1, PageBytes: 1 << 10})
	if err := b.SetWPArea(0, 1<<10); err != nil {
		t.Fatal(err)
	}
	if _, bit := b.Lookup(0x000); !bit {
		t.Error("page 0 should be way-placed")
	}
	if _, bit := b.Lookup(0x400); bit {
		t.Error("page 1 should not be way-placed")
	}
	if _, bit := b.Lookup(0x000); !bit {
		t.Error("page 0 bit lost after refill")
	}
}

func TestSetWPAreaValidation(t *testing.T) {
	for _, tc := range []struct {
		name        string
		start, size uint32
		ok          bool
	}{
		{"zero size disables", 0, 0, true},
		{"one page", 0, 1 << 10, true},
		{"many pages", 0x1_0000, 16 << 10, true},
		{"non-page-multiple size", 0, 1000, false},
		{"sub-page size", 0, 512, false},
		{"unaligned start", 512, 1 << 10, false},
		{"unaligned start and size", 100, 100, false},
		{"last page of the address space", 0xffff_fc00, 1 << 10, true},
		{"area ends exactly at 2^32", 0xffff_f000, 4 << 10, true},
		{"area wraps past 2^32", 0xffff_fc00, 2 << 10, false},
		{"maximal wrap", 0xffff_fc00, 0xffff_fc00, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := MustNew(cfg32())
			err := b.SetWPArea(tc.start, tc.size)
			if tc.ok && err != nil {
				t.Fatalf("SetWPArea(%#x, %#x) rejected: %v", tc.start, tc.size, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("SetWPArea(%#x, %#x) accepted", tc.start, tc.size)
			}
		})
	}

	b := MustNew(cfg32())
	if err := b.SetWPArea(0, 0); err != nil {
		t.Fatalf("zero size (disabled) rejected: %v", err)
	}
	if b.WayPlaced(0) {
		t.Error("zero-size area still marks pages")
	}
}

// TestWPAreaAtTopOfAddressSpace pins the unsigned-overflow hazard:
// with the area touching the top of the 32-bit space, start+size is
// exactly 2^32 (i.e. 0 in uint32 arithmetic), and a naive
// `addr < start+size` bound would mark NO page way-placed — or, with
// a wrapped area, every low page. The page-table predicate must get
// both edges right.
func TestWPAreaAtTopOfAddressSpace(t *testing.T) {
	b := MustNew(cfg32())
	if err := b.SetWPArea(0xffff_f000, 4<<10); err != nil {
		t.Fatalf("SetWPArea: %v", err)
	}
	for _, tc := range []struct {
		addr uint32
		want bool
	}{
		{0xffff_f000, true},
		{0xffff_ffff, true}, // very last byte
		{0xffff_efff, false},
		{0x0000_0000, false}, // no wrap-around marking
		{0x0001_0000, false},
	} {
		if got := b.WayPlaced(tc.addr); got != tc.want {
			t.Errorf("WayPlaced(%#x) = %v, want %v", tc.addr, got, tc.want)
		}
		if got := b.PageWayPlaced(tc.addr); got != tc.want {
			t.Errorf("PageWayPlaced(%#x) = %v, want %v", tc.addr, got, tc.want)
		}
		if _, bit := b.Lookup(tc.addr); bit != tc.want {
			t.Errorf("Lookup(%#x) bit = %v, want %v", tc.addr, bit, tc.want)
		}
	}
}

func TestInvalidate(t *testing.T) {
	b := MustNew(Config{Entries: 4, PageBytes: 1 << 10})
	if err := b.SetWPArea(0, 2<<10); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint32{0x000, 0x400, 0x800} {
		b.Lookup(addr)
	}
	if got := len(b.Resident()); got != 3 {
		t.Fatalf("%d resident entries before invalidate, want 3", got)
	}

	b.Invalidate()
	if got := len(b.Resident()); got != 0 {
		t.Fatalf("%d resident entries after invalidate, want 0", got)
	}
	if b.Stats.Invalidates != 1 {
		t.Errorf("Invalidates = %d, want 1", b.Stats.Invalidates)
	}
	// The same-page fast path must be cleared too: the very next
	// lookup is a miss even for the page the last lookup touched.
	before := b.Stats.Misses
	if miss, _ := b.Lookup(0x800); !miss {
		t.Error("lookup after invalidate hit a dead entry")
	}
	if b.Stats.Misses != before+1 {
		t.Errorf("Misses = %d, want %d", b.Stats.Misses, before+1)
	}
	// And refills deliver the page-table truth.
	if _, bit := b.Lookup(0x400); !bit {
		t.Error("refilled entry lost the way-placed bit")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, c := range []Config{{Entries: 0, PageBytes: 1024}, {Entries: 4, PageBytes: 1000}, {Entries: 4, PageBytes: 0}} {
		if _, err := New(c); err == nil {
			t.Errorf("New(%+v) accepted invalid config", c)
		}
	}
}

// Property: a second consecutive lookup of the same address always
// hits, regardless of history.
func TestRelookupAlwaysHits(t *testing.T) {
	b := MustNew(Config{Entries: 4, PageBytes: 1 << 10})
	f := func(addr uint32) bool {
		b.Lookup(addr)
		miss, _ := b.Lookup(addr)
		return !miss
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageShift(t *testing.T) {
	if got := cfg32().PageShift(); got != 10 {
		t.Errorf("PageShift = %d, want 10", got)
	}
}

func TestAddRepeatsCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := range typ.NumField() {
		var s, mark, want Stats
		reflect.ValueOf(&mark).Elem().Field(i).SetUint(2)
		reflect.ValueOf(&s).Elem().Field(i).SetUint(5)
		reflect.ValueOf(&want).Elem().Field(i).SetUint(5 + 3*(5-2))
		s.addRepeats(&mark, 3)
		if s != want {
			t.Errorf("Stats.%s: addRepeats gave %+v, want %+v", typ.Field(i).Name, s, want)
		}
	}
}

// A skipped copy charges what replaying it would; a copy that misses
// refuses.
func TestSkipRepeats(t *testing.T) {
	pages := []uint32{0x0000, 0x0400, 0x0404, 0x0800, 0x0000}
	replay := func(tl *TLB) {
		for _, a := range pages {
			tl.Lookup(a)
		}
	}
	fast, full := MustNew(cfg32()), MustNew(cfg32())
	fast.Mark()
	replay(fast)
	if fast.SkipRepeats(1) {
		t.Fatal("skipped a copy that missed")
	}
	fast.Mark()
	replay(fast)
	if !fast.SkipRepeats(4) {
		t.Fatal("refused to skip a warm copy")
	}
	replay(fast)
	for range 7 {
		replay(full)
	}
	if fast.Stats != full.Stats || fast.tick != full.tick || !reflect.DeepEqual(fast.entries, full.entries) {
		t.Errorf("skipped %+v, want %+v", fast.Stats, full.Stats)
	}
}

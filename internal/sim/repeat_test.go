package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/energy"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// symbolChunk builds a chunk with one two-event run per symbol: symbol
// s fetches 0x1000+64s and the next instruction.
func symbolChunk(symbols []int) *FetchChunk {
	ch := &FetchChunk{}
	for _, s := range symbols {
		addr := uint32(0x1000 + 64*s)
		ch.Runs = append(ch.Runs, FetchRun{Start: uint32(len(ch.Events)), N: 2})
		ch.Events = append(ch.Events, addr, addr+4)
	}
	return ch
}

// repeated returns k back-to-back copies of body.
func repeated(body []int, k int) []int {
	var out []int
	for range k {
		out = append(out, body...)
	}
	return out
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

func cat(parts ...[]int) []int {
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func TestRepeatDetector(t *testing.T) {
	body := []int{1, 2, 3}
	for _, tc := range []struct {
		name    string
		symbols []int
		want    []FetchRepeat
	}{
		{"period", cat([]int{9}, repeated(body, 5), []int{7}),
			[]FetchRepeat{{At: 4, Period: 3, Count: 4}}},
		{"two copies after the reference are too few", repeated(body, 3), nil},
		{"three copies after the reference", repeated(body, 4),
			[]FetchRepeat{{At: 3, Period: 3, Count: 3}}},
		{"partial trailing copy stays out", cat(repeated(body, 4), []int{1, 2}),
			[]FetchRepeat{{At: 3, Period: 3, Count: 3}}},
		{"longest period", repeated(seq(0, maxRepeatPeriod), 4),
			[]FetchRepeat{{At: maxRepeatPeriod, Period: maxRepeatPeriod, Count: 3}}},
		{"period beyond the bound", repeated(seq(0, maxRepeatPeriod+1), 4), nil},
		{"two repeats", cat(repeated(body, 4), []int{8}, repeated([]int{4, 5}, 6)),
			[]FetchRepeat{{At: 3, Period: 3, Count: 3}, {At: 15, Period: 2, Count: 5}}},
		{"single-run loop", []int{1, 2, 5, 5, 5, 5},
			[]FetchRepeat{{At: 3, Period: 1, Count: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d repeatDetector
			got := d.find(symbolChunk(tc.symbols))
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("repeats = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// Runs match only when every field a model reads matches: a run with
// the same first event but another length or last event, or the same
// address with the indirect flag set, breaks the repeat.
func TestRepeatDetectorExactness(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(ch *FetchChunk, r FetchRun)
	}{
		{"length", func(ch *FetchChunk, r FetchRun) { ch.Runs[7].N = 1 }},
		{"last event", func(ch *FetchChunk, r FetchRun) { ch.Events[r.Start+1] += 8 }},
		{"indirect flag", func(ch *FetchChunk, r FetchRun) { ch.Events[r.Start] |= cpu.EventIndirect }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch := symbolChunk(repeated([]int{1, 2, 3}, 4))
			tc.mutate(ch, ch.Runs[7])
			var d repeatDetector
			for _, rp := range d.find(ch) {
				if rp.At <= 7 && 7 < rp.At+rp.Count*rp.Period {
					t.Errorf("repeat %+v covers the altered run 7", rp)
				}
			}
		})
	}
}

// A detector reused across chunks never refers back into an earlier
// chunk: every reference copy lies inside its own chunk, and a repeat
// reaching the chunk's end is emitted.
func TestRepeatDetectorChunkEdges(t *testing.T) {
	var d repeatDetector
	d.find(symbolChunk(repeated([]int{1, 2, 3}, 5)))
	got := d.find(symbolChunk(repeated([]int{1, 2, 3}, 4)))
	want := []FetchRepeat{{At: 3, Period: 3, Count: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("second chunk's repeats = %+v, want %+v", got, want)
	}
	if got := d.find(symbolChunk([]int{1, 2, 3})); len(got) != 0 {
		t.Errorf("third chunk's repeats = %+v, want none", got)
	}
}

// checkRepeats verifies the FetchRepeat contract on ch.
func checkRepeats(t *testing.T, ch *FetchChunk) {
	t.Helper()
	next := uint32(0)
	for _, rp := range ch.Repeats {
		if rp.Period == 0 || rp.Period > maxRepeatPeriod || rp.Count < minRepeatCount {
			t.Fatalf("repeat %+v outside the bounds", rp)
		}
		if rp.At < rp.Period || rp.At < next {
			t.Fatalf("repeat %+v overlaps its predecessor or the chunk start (next %d)", rp, next)
		}
		next = rp.At + rp.Count*rp.Period
		if int(next) > len(ch.Runs) {
			t.Fatalf("repeat %+v runs past the chunk's %d runs", rp, len(ch.Runs))
		}
		for i := rp.At; i < next; i++ {
			if !sameRun(ch.Events, ch.Runs[i], ch.Runs[i-rp.Period]) {
				t.Fatalf("repeat %+v: run %d differs from run %d", rp, i, i-rp.Period)
			}
		}
	}
}

func TestRepeatDetectorRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d repeatDetector
	found := 0
	for range 200 {
		var symbols []int
		for len(symbols) < 2000 {
			body := seq(rng.Intn(40), 1+rng.Intn(20))
			symbols = append(symbols, repeated(body, 1+rng.Intn(8))...)
			symbols = append(symbols, 100+rng.Intn(5))
		}
		ch := symbolChunk(symbols)
		ch.Repeats = d.find(ch)
		found += len(ch.Repeats)
		checkRepeats(t, ch)
	}
	if found == 0 {
		t.Fatal("no repeat found in 200 looping streams")
	}
}

// eventStream builds synthetic fetch streams: straight-line blocks and
// the transfers between them.
type eventStream []uint32

// block appends n sequential fetches from addr; indirect flags the
// first one as the target of an indirect transfer.
func (s *eventStream) block(addr uint32, n int, indirect bool) {
	for i := range n {
		ev := addr + uint32(4*i)
		if i == 0 && indirect {
			ev |= cpu.EventIndirect
		}
		*s = append(*s, ev)
	}
}

const testProgBase = 0x8000

// Replay scenarios. Addresses are offsets from testProgBase; the
// thrash geometry (1KB, 2 ways, 32B lines) has 16 sets, so addresses
// 512 bytes apart share a set.
var replayScenarios = []struct {
	name   string
	events func() eventStream
	// checks names models that must take (or never take) a skip.
	checks []skipCheck
}{
	{
		// Nested loops with a call and a return in the body: fits every
		// cache, so copies after the first hit and skip.
		name: "loop fits",
		events: func() eventStream {
			var s eventStream
			s.block(testProgBase, 20, false)
			for range 12 {
				s.block(testProgBase+0x100, 12, false)
				for range 9 {
					s.block(testProgBase+0x200, 6, false)
					s.block(testProgBase+0x900, 5, false)
					s.block(testProgBase+0x218, 3, true)
				}
				s.block(testProgBase+0x140, 7, false)
			}
			return s
		},
		checks: []skipCheck{
			{model: "wp", skips: true}, {model: "waymem", skips: true},
			{model: "wp-lru", skips: true}, {model: "itlb", skips: true},
		},
	},
	{
		// Lines A and B share a thrash-geometry set that already holds A
		// and X. Round-robin evicts A while the reference copy fills B,
		// so the first repeated copy misses on A (evicting X) and only
		// the copies after it hit.
		name: "first copy misses",
		events: func() eventStream {
			const a, b, x = testProgBase, testProgBase + 0x200, testProgBase + 0x1000
			var s eventStream
			s.block(a, 8, false)
			s.block(x, 8, false)
			for range 10 {
				s.block(a, 8, false)
				s.block(b, 8, false)
			}
			return s
		},
		checks: []skipCheck{{model: "wp-thrash-full", skips: true, refuses: true}},
	},
	{
		// A 2KB loop body through a 1KB cache: every copy misses.
		name: "loop larger than the cache",
		events: func() eventStream {
			var s eventStream
			for range 8 {
				s.block(testProgBase, 512, false)
			}
			return s
		},
		checks: []skipCheck{
			{model: "wp-thrash", never: true}, {model: "wp-thrash-full", never: true},
			{model: "waymem-thrash", never: true}, {model: "itlb", skips: true},
		},
	},
	{
		// One run on each of 40 pages per copy: more pages than the
		// I-TLB's 32 entries, so its true LRU misses on every lookup.
		name: "loop over more pages than the I-TLB holds",
		events: func() eventStream {
			var s eventStream
			for range 8 {
				for p := range 40 {
					s.block(testProgBase+uint32(p)<<10+uint32(p%32)*32, 8, false)
				}
			}
			return s
		},
		checks: []skipCheck{{model: "itlb", never: true, refuses: true}, {model: "wp", skips: true}},
	},
}

// skipCheck states how a named model must treat a scenario's repeats.
type skipCheck struct {
	model   string
	skips   bool // at least one skip taken
	refuses bool // at least one skip refused
	never   bool // no skip taken
}

// countingReplayer counts the skips a model takes and refuses.
type countingReplayer struct {
	repeatReplayer
	taken, refused int
}

func (c *countingReplayer) SkipRepeats(k uint64) bool {
	ok := c.repeatReplayer.SkipRepeats(k)
	if ok {
		c.taken++
	} else {
		c.refused++
	}
	return ok
}

func (c *countingReplayer) check(t *testing.T, want skipCheck) {
	t.Helper()
	if want.skips && c.taken == 0 {
		t.Errorf("%s took no skip (%d refused)", want.model, c.refused)
	}
	if want.refuses && c.refused == 0 {
		t.Errorf("%s refused no skip (%d taken)", want.model, c.taken)
	}
	if want.never && c.taken != 0 {
		t.Errorf("%s took %d skips, want none", want.model, c.taken)
	}
}

// replayChunks segments events into chunks of chunkEvents, detects
// each chunk's repeats and hands the chunk to fn.
func replayChunks(events []uint32, block, chunkEvents int, fn func(*FetchChunk)) {
	var d repeatDetector
	for lo := 0; lo < len(events); lo += chunkEvents {
		ev := events[lo:min(lo+chunkEvents, len(events))]
		ch := &FetchChunk{Events: ev, Runs: segment(ev, uint32(block-1), nil)}
		ch.Repeats = d.find(ch)
		fn(ch)
	}
}

// TestReplayRepeatsMatchesFullReplay replays every scenario through
// every model shape twice — fast-forwarding the chunk's repeats, and
// with Repeats cleared — and requires identical state: the whole cache
// array (counters, lines with their recency, links, round-robin
// pointers, clock) for the fetch engines, and for the I-TLB its
// counters plus the resident entries after an LRU eviction sweep.
func TestReplayRepeatsMatchesFullReplay(t *testing.T) {
	base := Default()
	geoDefault := base.ICache
	geoSmallLRU := cache.Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 32, Policy: cache.LRU}
	geoThrash := cache.Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 32, Policy: cache.RoundRobin}
	geoWide := cache.Config{SizeBytes: 16 << 10, Ways: 16, LineBytes: 64, Policy: cache.RoundRobin}
	models := []struct {
		name string
		spec ModelSpec
	}{
		{"wp", ModelSpec{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 2 << 10}},
		{"wp-oracle", ModelSpec{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 2 << 10, OracleHint: true}},
		{"wp-nosameline", ModelSpec{Geometry: geoWide, Scheme: energy.WayPlacement, WPSize: 2 << 10, NoSameLine: true}},
		{"wp-lru", ModelSpec{Geometry: geoSmallLRU, Scheme: energy.WayPlacement, WPSize: 1 << 10}},
		{"wp-thrash", ModelSpec{Geometry: geoThrash, Scheme: energy.WayPlacement, WPSize: 1 << 10}},
		{"wp-thrash-full", ModelSpec{Geometry: geoThrash, Scheme: energy.WayPlacement}},
		{"waymem", ModelSpec{Geometry: geoDefault, Scheme: energy.WayMemoization}},
		{"waymem-lru", ModelSpec{Geometry: geoSmallLRU, Scheme: energy.WayMemoization}},
		{"waymem-thrash", ModelSpec{Geometry: geoThrash, Scheme: energy.WayMemoization}},
		{"baseline", ModelSpec{Geometry: geoThrash, Scheme: energy.Baseline}},
	}
	prog := &obj.Program{Base: testProgBase}
	for _, sc := range replayScenarios {
		events := sc.events()
		checks := map[string]skipCheck{}
		for _, c := range sc.checks {
			checks[c.model] = c
		}
		for _, chunkEvents := range []int{1 << 16, 777} {
			t.Run(fmt.Sprintf("%s/chunk%d", sc.name, chunkEvents), func(t *testing.T) {
				for _, mc := range models {
					fast, err := newModel(base, mc.spec, prog)
					if err != nil {
						t.Fatal(err)
					}
					full, _ := newModel(base, mc.spec, prog)
					counted := &countingReplayer{repeatReplayer: fast.(repeatReplayer)}
					block := min(mc.spec.Geometry.LineBytes, base.ITLB.PageBytes)
					replayChunks(events, block, chunkEvents, func(ch *FetchChunk) {
						checkRepeats(t, ch)
						replayRepeats(counted, ch)
						plain := *ch
						plain.Repeats = nil
						if err := full.Consume(&plain); err != nil {
							t.Fatal(err)
						}
					})
					got, want := fast.core().fe.Cache(), full.core().fe.Cache()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: fast-forwarded cache differs from full replay:\n got %+v\nwant %+v",
							mc.name, got.Stats, want.Stats)
					}
					if mc.spec.Scheme == energy.Baseline &&
						baselineStats(got.Stats, mc.spec.Geometry.Ways) != baselineStats(want.Stats, mc.spec.Geometry.Ways) {
						t.Errorf("%s: derived baseline stats differ", mc.name)
					}
					if c, ok := checks[mc.name]; ok && chunkEvents == 1<<16 {
						counted.check(t, c)
					}
				}

				fast, full := tlb.MustNew(base.ITLB), tlb.MustNew(base.ITLB)
				counted := &countingReplayer{repeatReplayer: sharedITLB{fast}}
				replayChunks(events, 32, chunkEvents, func(ch *FetchChunk) {
					replayRepeats(counted, ch)
					sharedITLB{full}.replayRuns(ch.Events, ch.Runs)
				})
				if c, ok := checks["itlb"]; ok && chunkEvents == 1<<16 {
					counted.check(t, c)
				}
				// Each fresh page evicts the least recently used entry,
				// so the resident sets agree only if recency does.
				for p := range uint32(base.ITLB.Entries) {
					addr := 0x4000_0000 + p<<10
					fast.Lookup(addr)
					full.Lookup(addr)
					if fast.Stats != full.Stats || !sameResident(fast, full) {
						t.Fatalf("I-TLB after eviction %d: stats %+v, want %+v (or resident entries differ)",
							p, fast.Stats, full.Stats)
					}
				}
			})
		}
	}
}

func sameResident(a, b *tlb.TLB) bool {
	ra, rb := a.Resident(), b.Resident()
	less := func(r []tlb.ResidentPage) func(i, j int) bool {
		return func(i, j int) bool { return r[i].VPN < r[j].VPN }
	}
	sort.Slice(ra, less(ra))
	sort.Slice(rb, less(rb))
	return reflect.DeepEqual(ra, rb)
}

// recordedStream is one binary's fetch stream, recorded chunk by chunk
// with its runs and repeats.
type recordedStream struct {
	chunks []FetchChunk
	models []ModelSpec
}

// record executes prog once and keeps copies of its chunks.
func record(b *testing.B, prog *obj.Program, base Config, block int) []FetchChunk {
	src, err := NewFetchSource(prog, base, block)
	if err != nil {
		b.Fatal(err)
	}
	var d repeatDetector
	var out []FetchChunk
	for {
		ch, err := src.NextChunk(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if ch == nil {
			return out
		}
		out = append(out, FetchChunk{
			Events:  append([]uint32(nil), ch.Events...),
			Runs:    append([]FetchRun(nil), ch.Runs...),
			Repeats: append([]FetchRepeat(nil), d.find(ch)...),
		})
	}
}

// BenchmarkModelReplay times the cache-model layer alone: a
// benchmark's fetch streams are recorded once, outside the timer, and
// each iteration replays them through a fresh copy of the grid's model
// set for that benchmark — way-memoization (which also serves the
// baselines) on the original binary and way-placement on the placed
// one, over the figure-5 area sizes, the figure-6 geometries and the
// hint, same-line and replacement ablations — plus each binary's shared
// I-TLB. The sub-benchmarks replay with the detected repeats and with
// Repeats cleared. cjpeg has 56% of its runs in skippable copies, close
// to the whole evaluation's 57%; bitcount has under 1%.
func BenchmarkModelReplay(b *testing.B) {
	for _, name := range []string{"cjpeg", "bitcount"} {
		b.Run(name, func(b *testing.B) { benchmarkModelReplay(b, name) })
	}
}

func benchmarkModelReplay(b *testing.B, name string) {
	base := Default()
	bm, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	small, err := bm.Build(bench.Small)
	if err != nil {
		b.Fatal(err)
	}
	large, err := bm.Build(bench.Large)
	if err != nil {
		b.Fatal(err)
	}
	const textBase = 0x8000
	smallProg, err := layout.LinkOriginal(small, textBase)
	if err != nil {
		b.Fatal(err)
	}
	prof, _, err := ProfileRun(smallProg, base.MaxInstrs)
	if err != nil {
		b.Fatal(err)
	}
	original, err := layout.LinkOriginal(large, textBase)
	if err != nil {
		b.Fatal(err)
	}
	placed, err := layout.Link(large, prof, textBase)
	if err != nil {
		b.Fatal(err)
	}

	xscale := base.ICache
	var geoms []cache.Config
	for _, kb := range []int{8, 16, 32} {
		for _, ways := range []int{8, 16, 32} {
			geoms = append(geoms, cache.Config{SizeBytes: kb << 10, Ways: ways, LineBytes: 32})
		}
	}
	orig := recordedStream{}
	for _, g := range geoms {
		orig.models = append(orig.models, ModelSpec{Geometry: g, Scheme: energy.WayMemoization})
	}
	wp := func(g cache.Config, kb int) ModelSpec {
		return ModelSpec{Geometry: g, Scheme: energy.WayPlacement, WPSize: uint32(kb) << 10}
	}
	plc := recordedStream{}
	for _, kb := range []int{16, 8, 4, 2, 1} {
		plc.models = append(plc.models, wp(xscale, kb))
	}
	oracle, noSameLine, lru := wp(xscale, 2), wp(xscale, 16), wp(xscale, 16)
	oracle.OracleHint, noSameLine.NoSameLine, lru.Geometry.Policy = true, true, cache.LRU
	plc.models = append(plc.models, oracle, noSameLine, lru)
	for _, g := range geoms {
		if g != xscale {
			plc.models = append(plc.models, wp(g, 16), wp(g, 8))
		}
	}
	orig.chunks = record(b, original, base, 32)
	plc.chunks = record(b, placed, base, 32)
	withRepeats := []recordedStream{orig, plc}
	var noRepeats []recordedStream
	for _, st := range withRepeats {
		plain := recordedStream{models: st.models, chunks: append([]FetchChunk(nil), st.chunks...)}
		for i := range plain.chunks {
			plain.chunks[i].Repeats = nil
		}
		noRepeats = append(noRepeats, plain)
	}

	for _, bc := range []struct {
		name    string
		streams []recordedStream
	}{{"repeats", withRepeats}, {"no-repeats", noRepeats}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int
			for range b.N {
				for _, st := range bc.streams {
					b.StopTimer()
					ms := make([]CacheModel, len(st.models))
					for i, spec := range st.models {
						if ms[i], err = newModel(base, spec, placed); err != nil {
							b.Fatal(err)
						}
					}
					itlb := sharedITLB{tlb.MustNew(base.ITLB)}
					b.StartTimer()
					for i := range st.chunks {
						ch := &st.chunks[i]
						events += len(ch.Events) * (len(ms) + 1)
						replayRepeats(itlb, ch)
						for _, m := range ms {
							if err := m.Consume(ch); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

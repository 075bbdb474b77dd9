package sim

// Single-pass multi-model simulation. The detailed run of a program is
// split into two halves:
//
//   - a FetchSource: CPU + memory image + data-side hierarchy
//     executing the program once and emitting the instruction-fetch
//     event stream (address + indirect-transfer flag per instruction);
//   - N CacheModels: independent instruction-side models (I-cache
//     fetch engine, I-TLB, energy accounting) replaying that stream.
//
// Every figure-6 style sweep re-executes the same program under
// configurations that differ only in the instruction side, so one
// fetch stream can drive every (geometry, scheme, WP-size) cell of a
// workload at once. RunMulti is the entry point; RunContext is now a
// thin one-model wrapper around it, and RunCoupled keeps the original
// coupled loop as the reference implementation for internal/check.
//
// One execution also serves every relink of the program's unit. The
// layout pass only reorders basic-block chains: fall-throughs are
// kept, only B/BL displacements are patched, and the data image comes
// from the unit. Every such binary therefore retires the same
// instruction sequence with the same data-side behaviour, and its
// fetch stream is the executing binary's stream with each address
// mapped to where the same instruction landed in the relink. A
// ModelSpec names its binary (Prog); RunMulti remaps each chunk into
// every other binary through a code-index→address table.
//
// What is fetch-relevant in a Config — i.e. what must be shared by
// models driven from one source — is exactly what the producer owns:
// the unit, Mem, Timing, DCache, DTLB, the I-TLB geometry and
// MaxInstrs. Everything instruction-side (the binary's layout, ICache
// geometry, scheme, array style, WP size, ablation switches, adaptive
// policy) is per-model, carried by a ModelSpec.

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/energy"
	"wayplace/internal/isa"
	"wayplace/internal/mem"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// ModelSpec describes one instruction-side model evaluated against a
// shared fetch stream: the I-cache geometry, the fetch scheme and its
// knobs. It replaces the Config.WithScheme copy-and-mutate idiom as
// the way to say "the same machine, under scheme X".
type ModelSpec struct {
	// Prog is the binary the model fetches from; nil means the pass's
	// own program. Any other binary must be a relink of the same unit
	// (the same basic blocks and data image in another block order),
	// or the model fails with ErrNotRelink.
	Prog *obj.Program
	// Geometry is the I-cache configuration.
	Geometry cache.Config
	Scheme   energy.Scheme
	// Style selects CAM-tag (default) or RAM-tag energy accounting.
	Style energy.ArrayStyle
	// WPSize is the static way-placement area size in bytes
	// (way-placement scheme only, multiple of the I-TLB page).
	WPSize uint32

	// Ablation switches (way-placement scheme only).
	OracleHint bool
	NoSameLine bool

	// Adaptive, when non-nil, runs the model under the adaptive OS
	// area-sizing policy: the scheme is forced to way-placement and the
	// model keeps a private I-TLB, since OS invalidations perturb it.
	Adaptive *AdaptivePolicy
}

// ModelSpecOf extracts the instruction-side half of a Config.
func ModelSpecOf(cfg Config) ModelSpec {
	return ModelSpec{
		Geometry:   cfg.ICache,
		Scheme:     cfg.Scheme,
		Style:      cfg.Style,
		WPSize:     cfg.WPSize,
		OracleHint: cfg.OracleHint,
		NoSameLine: cfg.NoSameLine,
	}
}

// ModelResult is one model's outcome from a RunMulti pass. Exactly one
// of Err and Stats is non-nil.
type ModelResult struct {
	Stats *RunStats
	// AreaChanges is the OS resize trace of an adaptive model.
	AreaChanges []AreaChange
	// Err reports a per-model failure (invalid spec, policy error);
	// other models of the same pass are unaffected.
	Err error
}

// ErrNotRelink fails a model whose binary is not a relink of the
// executing program's unit, so the pass's fetch stream cannot be
// remapped into it.
var ErrNotRelink = errors.New("sim: model binary is not a relink of the executing program's unit")

// FetchRun is a maximal sub-sequence of a chunk whose events all lie
// in one aligned block no larger than any of its binary's models'
// cache lines and the I-TLB page: after the first event the line is
// resident and the page translated for every model, so the remaining
// N-1 events can be replayed in bulk (the fetch engines'
// FetchSameLine, tlb.TLB.BulkHits).
type FetchRun struct {
	Start uint32 // index of the run's first event in Events
	N     uint32 // number of events in the run
}

// FetchChunk is one batch of fetch events. Events holds one word per
// retired instruction: the fetch address with cpu.EventIndirect in bit
// 0. Runs segments the same events for bulk replay. Repeats marks
// stretches of Runs that repeat exactly, in increasing At order and
// without overlap, so a model can fast-forward loop iterations; nil
// means none are known, and a consumer that ignores Repeats replays
// the chunk correctly. NextChunk leaves Repeats nil; RunMulti fills it
// per binary after segmentation. All slices alias buffers reused by
// the next chunk.
type FetchChunk struct {
	Events  []uint32
	Runs    []FetchRun
	Repeats []FetchRepeat
}

// FetchRepeat says that runs [At, At+Count·Period) of a chunk repeat
// runs [At−Period, At) exactly, Count times back to back. Runs match
// when they agree in everything a model reads: the first event word
// (address and indirect flag), the length N and the last event word.
// The reference copy [At−Period, At) lies inside the same chunk.
type FetchRepeat struct {
	At     uint32 // index of the first run of the first repeated copy
	Period uint32 // runs per copy, at most maxRepeatPeriod
	Count  uint32 // repeated copies after the reference, at least minRepeatCount
}

// fetchChunkEvents is the production batch size: large enough to
// amortise per-chunk work, small enough to stay cache-resident, and
// matching the granularity of context cancellation checks.
const fetchChunkEvents = 64 << 10

// FetchSource executes a program once — CPU, memory image and
// data-side hierarchy live; instruction side detached — and emits the
// fetch-event stream in chunks.
type FetchSource struct {
	cpu    *cpu.CPU
	mem    *mem.Memory
	dcache *cache.DataCache
	dtlb   *tlb.TLB

	maxInstrs uint64
	blockNeg  uint32 // blockBytes-1: events with equal ev&^blockNeg share a run
	events    []uint32
	runs      []FetchRun
	done      bool
}

// NewFetchSource builds the producer half of a single-pass run.
// blockBytes (a power of two ≥ 4) is the run-segmentation granule; it
// must not exceed any consuming model's line size or the I-TLB page.
func NewFetchSource(prog *obj.Program, base Config, blockBytes int) (*FetchSource, error) {
	if blockBytes < 4 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("sim: fetch-run block size must be a power of two ≥ 4, got %d", blockBytes)
	}
	m := mem.New(base.Mem)
	c := cpu.New(prog, m)
	c.DisableInstrCounts() // event production never builds a profile
	c.Timing = base.Timing
	dtlb, err := tlb.New(base.DTLB)
	if err != nil {
		return nil, err
	}
	dcache, err := cache.NewData(base.DCache)
	if err != nil {
		return nil, err
	}
	c.DCache = dcache
	c.DTLB = dtlb
	maxInstrs := base.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = Default().MaxInstrs
	}
	return &FetchSource{
		cpu:       c,
		mem:       m,
		dcache:    dcache,
		dtlb:      dtlb,
		maxInstrs: maxInstrs,
		blockNeg:  uint32(blockBytes - 1),
		events:    make([]uint32, fetchChunkEvents),
	}, nil
}

// NextChunk produces the next batch of fetch events, or (nil, nil)
// once the program has halted. The returned chunk's slices are only
// valid until the next call.
func (s *FetchSource) NextChunk(ctx context.Context) (*FetchChunk, error) {
	if s.done {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, err := s.cpu.RunEvents(s.events, s.maxInstrs)
	if err != nil {
		return nil, err
	}
	s.done = s.cpu.Halted
	if n == 0 {
		return nil, nil
	}
	ev := s.events[:n]
	s.runs = segment(ev, s.blockNeg, s.runs[:0])
	return &FetchChunk{Events: ev, Runs: s.runs}, nil
}

// segment appends the same-block runs of a non-empty event slice to
// runs. blockNeg ≥ 3, so masking it off also clears the indirect flag
// bit.
func segment(ev []uint32, blockNeg uint32, runs []FetchRun) []FetchRun {
	start, block := 0, ev[0]&^blockNeg
	for i := 1; i < len(ev); i++ {
		if b := ev[i] &^ blockNeg; b != block {
			runs = append(runs, FetchRun{Start: uint32(start), N: uint32(i - start)})
			start, block = i, b
		}
	}
	return append(runs, FetchRun{Start: uint32(start), N: uint32(len(ev) - start)})
}

// Repeat detection bounds. maxRepeatPeriod caps how many runs back the
// detector looks for the previous copy. minRepeatCount is the fewest
// copies after the reference worth reporting: a model replays one copy
// from its mark and replays the last one for exact recency, so three
// is the least that leaves one to skip.
const (
	maxRepeatPeriod = 512
	minRepeatCount  = 3
	repeatHashBits  = 12
)

// repeatDetector finds the FetchRepeats of a segmented chunk in one
// greedy pass. last maps a hash of a run's first event word to the
// most recent run with that hash; it proposes the distance back to that
// run as the period when no repeat is being extended. Its buffers are
// reused from chunk to chunk.
type repeatDetector struct {
	last    [1 << repeatHashBits]int32 // run index + 1; 0 is empty
	repeats []FetchRepeat
}

// sameRun reports whether runs a and b look identical to every model.
func sameRun(ev []uint32, a, b FetchRun) bool {
	return a.N == b.N && ev[a.Start] == ev[b.Start] && ev[a.Start+a.N-1] == ev[b.Start+b.N-1]
}

// find returns ch's repeats. It extends one candidate period at a time:
// while run i equals run i−period the stretch grows; when it breaks the
// stretch is emitted if it holds at least minRepeatCount whole copies,
// and the last-seen table proposes a new period at i. The returned
// slice is valid until the next call.
func (d *repeatDetector) find(ch *FetchChunk) []FetchRepeat {
	clear(d.last[:])
	ev, runs := ch.Events, ch.Runs
	out := d.repeats[:0]
	period, streak := 0, 0 // runs [i−streak, i) each equal the run period before
	emit := func(end int) {
		if period > 0 && streak/period >= minRepeatCount {
			out = append(out, FetchRepeat{
				At:     uint32(end - streak),
				Period: uint32(period),
				Count:  uint32(streak / period),
			})
		}
	}
	for i, r := range runs {
		h := (ev[r.Start] * 0x9e3779b1) >> (32 - repeatHashBits)
		if period > 0 && sameRun(ev, r, runs[i-period]) {
			streak++
		} else {
			emit(i)
			period, streak = 0, 0
			if j := int(d.last[h]) - 1; j >= 0 && i-j <= maxRepeatPeriod && sameRun(ev, r, runs[j]) {
				period, streak = i-j, 1
			}
		}
		d.last[h] = int32(i + 1)
	}
	emit(len(runs))
	d.repeats = out
	return out
}

// relinkAddrs maps each code index of exec to the address the same
// instruction has in p, or fails with ErrNotRelink when p is not a
// relink of exec's unit: the same blocks (by identity), covering the
// whole image, and the same data image.
func relinkAddrs(exec, p *obj.Program) ([]uint32, error) {
	if len(p.Code) != len(exec.Code) || len(p.Placed) != len(exec.Placed) ||
		p.DataBase != exec.DataBase || !bytes.Equal(p.Data, exec.Data) {
		return nil, ErrNotRelink
	}
	at := make(map[*obj.Block]uint32, len(p.Placed))
	for _, pl := range p.Placed {
		at[pl.Block] = pl.Addr
	}
	addrs := make([]uint32, len(exec.Code))
	covered := 0
	for _, pl := range exec.Placed {
		a, ok := at[pl.Block]
		if !ok {
			return nil, ErrNotRelink
		}
		i := (pl.Addr - exec.Base) / isa.InstrBytes
		for k := range pl.Block.Instrs {
			addrs[i+uint32(k)] = a + uint32(k)*isa.InstrBytes
		}
		covered += len(pl.Block.Instrs)
	}
	if covered != len(exec.Code) {
		return nil, ErrNotRelink
	}
	return addrs, nil
}

// binaryStream is one binary's view of a pass: its models, its
// run-segmentation block (the smallest of its models' lines, capped at
// the page) and its shared reference I-TLB. For any binary but the
// executing one it also holds the remap table.
type binaryStream struct {
	prog   *obj.Program
	addrOf []uint32 // executing code index -> address here; nil for the executing binary
	err    error    // relink failure: every model of this binary fails with it
	block  int
	shared *tlb.TLB
	models []CacheModel
}

// remap rewrites the executing binary's chunk into this binary's
// addresses, keeping each event's indirect flag, and segments it into
// dst, whose buffers every relink of the pass reuses in turn.
func (b *binaryStream) remap(ch *FetchChunk, execBase uint32, dst *FetchChunk) *FetchChunk {
	if cap(dst.Events) < len(ch.Events) {
		dst.Events = make([]uint32, len(ch.Events))
	}
	ev := dst.Events[:len(ch.Events)]
	for i, e := range ch.Events {
		ev[i] = b.addrOf[(e-execBase)/isa.InstrBytes] | e&cpu.EventIndirect
	}
	dst.Events = ev
	dst.Runs = segment(ev, uint32(b.block-1), dst.Runs[:0])
	return dst
}

// CacheModel is one instruction-side model consuming a fetch-event
// stream. Implementations are created by RunMulti from ModelSpecs;
// the interface is the seam between production and modelling.
type CacheModel interface {
	// Consume replays one chunk. An error marks this model failed;
	// other models sharing the stream continue.
	Consume(*FetchChunk) error

	core() *modelCore
}

// modelCore is the state every model shape shares.
type modelCore struct {
	spec    ModelSpec
	fe      cache.FetchEngine
	ownITLB *tlb.TLB     // adaptive models only; nil means use the shared reference I-TLB
	changes []AreaChange // adaptive resize trace
}

func (m *modelCore) core() *modelCore { return m }

// staticWPOracle is the way-placement bit for a run whose area never
// changes: a pure range check. With a static area the I-TLB's resident
// way-bits always agree with the page tables, so the hardware's
// entry-sourced bit reduces to exactly this predicate.
type staticWPOracle struct{ start, size uint32 }

func (o staticWPOracle) WayPlaced(addr uint32) bool {
	return o.size != 0 && addr >= o.start && addr-o.start < o.size
}

// repeatReplayer is a model that replays runs and can fast-forward the
// repeated copies of a FetchRepeat (cache.WayPlacementEngine.Mark and
// SkipRepeats state the rule).
type repeatReplayer interface {
	replayRuns(ev []uint32, runs []FetchRun)
	Mark()
	SkipRepeats(k uint64) bool
}

// replayRepeats replays ch through r. Within each repeat it replays one
// copy from a mark; if the model then accepts, every remaining copy
// but the last is charged in one step, and the last copy is replayed
// normally so recency ends exact. A refused copy simply moves the mark
// to the next one.
func replayRepeats(r repeatReplayer, ch *FetchChunk) {
	ev, runs := ch.Events, ch.Runs
	next := uint32(0)
	for _, rp := range ch.Repeats {
		r.replayRuns(ev, runs[next:rp.At])
		at, left, p := rp.At, rp.Count, rp.Period
		for left >= 3 { // a copy to mark, at least one to skip, the last
			r.Mark()
			r.replayRuns(ev, runs[at:at+p])
			at, left = at+p, left-1
			if r.SkipRepeats(uint64(left - 1)) {
				at, left = at+(left-1)*p, 1
			}
		}
		next = at + left*p
		r.replayRuns(ev, runs[at:next])
	}
	r.replayRuns(ev, runs[next:])
}

// The bulk models replay runs in bulk: one real Fetch per run, then
// the engine's FetchSameLine fast path for the rest — a same-line hit
// per fetch or, with the same-line skip ablated, a repeat of the
// previous access — and fast-forward the chunk's repeats. One concrete
// model type per engine keeps the per-run calls direct (devirtualised
// and inlinable) — this loop runs once per fetch run per model and
// dominates consume time.
//
// A baseline model is a way-memoization model: way-memoization never
// changes what the cache holds, so a baseline spec finalizes from it
// (baselineStats) and needs no replay of its own.

type wayMemoBulkModel struct {
	modelCore
	*cache.WayMemoizationEngine
}

func (m *wayMemoBulkModel) Consume(ch *FetchChunk) error {
	replayRepeats(m, ch)
	return nil
}

func (m *wayMemoBulkModel) replayRuns(ev []uint32, runs []FetchRun) {
	wm := m.WayMemoizationEngine
	for _, r := range runs {
		e := ev[r.Start]
		wm.Fetch(cpu.EventAddr(e), e&cpu.EventIndirect != 0)
		if r.N > 1 {
			wm.FetchSameLine(int(r.N-1), cpu.EventAddr(ev[r.Start+r.N-1]))
		}
	}
}

type wayPlaceBulkModel struct {
	modelCore
	*cache.WayPlacementEngine
}

func (m *wayPlaceBulkModel) Consume(ch *FetchChunk) error {
	replayRepeats(m, ch)
	return nil
}

func (m *wayPlaceBulkModel) replayRuns(ev []uint32, runs []FetchRun) {
	wpe := m.WayPlacementEngine
	for _, r := range runs {
		e := ev[r.Start]
		wpe.Fetch(cpu.EventAddr(e), e&cpu.EventIndirect != 0)
		if r.N > 1 {
			wpe.FetchSameLine(int(r.N-1), cpu.EventAddr(ev[r.Start+r.N-1]))
		}
	}
}

// sharedITLB replays a binary's shared reference I-TLB: one Lookup per
// run, the rest of the run as bulk hits on the same page.
type sharedITLB struct{ *tlb.TLB }

func (t sharedITLB) replayRuns(ev []uint32, runs []FetchRun) {
	for _, r := range runs {
		t.Lookup(cpu.EventAddr(ev[r.Start]))
		if r.N > 1 {
			t.BulkHits(uint64(r.N - 1))
		}
	}
}

// adaptiveModel replays runs under the adaptive OS policy: a private
// I-TLB (OS invalidations make its stats diverge from the shared one)
// and an OS decision point every IntervalInstrs consumed events,
// reproducing sim.RunAdaptive's coupled loop bit for bit. A run that
// straddles a decision point is split there; each piece replays in
// bulk like any other run.
type adaptiveModel struct {
	modelCore
	wpe      *cache.WayPlacementEngine
	pol      AdaptivePolicy
	progBase uint32
	size     uint32
	prev     cache.Stats
	consumed uint64
}

func (m *adaptiveModel) Consume(ch *FetchChunk) error {
	interval := m.pol.IntervalInstrs
	for _, r := range ch.Runs {
		at, left := uint64(r.Start), uint64(r.N)
		for left > 0 {
			if m.consumed > 0 && m.consumed%interval == 0 {
				if err := m.decide(); err != nil {
					return err
				}
			}
			k := min(left, interval-m.consumed%interval)
			ev := ch.Events[at]
			addr := cpu.EventAddr(ev)
			m.ownITLB.Lookup(addr)
			m.wpe.Fetch(addr, ev&cpu.EventIndirect != 0)
			if k > 1 {
				m.ownITLB.BulkHits(k - 1)
				m.wpe.FetchSameLine(int(k-1), cpu.EventAddr(ch.Events[at+k-1]))
			}
			m.consumed += k
			at += k
			left -= k
		}
	}
	return nil
}

// decide is one OS decision point, mirroring RunAdaptive's loop body:
// inspect the window, maybe resize, flush and invalidate on a change.
func (m *adaptiveModel) decide() error {
	cur := m.wpe.Cache().Stats
	dFetch := cur.Fetches - m.prev.Fetches
	if dFetch == 0 {
		m.prev = cur
		return nil
	}
	wpFrac := float64(cur.WPAreaFetches-m.prev.WPAreaFetches) / float64(dFetch)
	missRate := float64(cur.Misses-m.prev.Misses) / float64(dFetch)
	m.prev = cur

	newSize := m.size
	switch {
	case m.size > uint32(m.spec.Geometry.SizeBytes) && missRate > m.pol.AliasMissRate && m.size/2 >= m.pol.MinSize:
		newSize = m.size / 2
	case wpFrac < m.pol.GrowThreshold && m.size*2 <= m.pol.MaxSize:
		newSize = m.size * 2
	}
	if newSize != m.size {
		m.size = newSize
		if err := m.ownITLB.SetWPArea(m.progBase, m.size); err != nil {
			return err
		}
		m.wpe.Cache().Flush()
		m.ownITLB.Invalidate()
		m.changes = append(m.changes, AreaChange{AtInstr: m.consumed, Size: m.size})
	}
	if m.pol.Inspect != nil {
		m.pol.Inspect(m.ownITLB, m.wpe.Cache())
	}
	return nil
}

// newModel builds the CacheModel for one spec.
func newModel(base Config, spec ModelSpec, prog *obj.Program) (CacheModel, error) {
	if err := spec.Geometry.Validate(); err != nil {
		return nil, fmt.Errorf("sim: i-cache: %w", err)
	}
	if spec.Adaptive != nil {
		pol := *spec.Adaptive
		if pol.IntervalInstrs == 0 || pol.StartSize == 0 {
			return nil, fmt.Errorf("sim: adaptive policy needs an interval and a start size")
		}
		itlb, err := tlb.New(base.ITLB)
		if err != nil {
			return nil, err
		}
		if err := itlb.SetWPArea(prog.Base, pol.StartSize); err != nil {
			return nil, err
		}
		wpe, err := cache.NewWayPlacement(spec.Geometry, itlb)
		if err != nil {
			return nil, err
		}
		spec.Scheme = energy.WayPlacement
		spec.WPSize = pol.StartSize
		m := &adaptiveModel{
			modelCore: modelCore{spec: spec, fe: wpe, ownITLB: itlb,
				changes: []AreaChange{{AtInstr: 0, Size: pol.StartSize}}},
			wpe: wpe, pol: pol, progBase: prog.Base, size: pol.StartSize,
		}
		return m, nil
	}

	switch spec.Scheme {
	case energy.Baseline, energy.WayMemoization:
		wm, err := cache.NewWayMemoization(spec.Geometry)
		if err != nil {
			return nil, err
		}
		return &wayMemoBulkModel{
			modelCore:            modelCore{spec: spec, fe: wm},
			WayMemoizationEngine: wm,
		}, nil

	case energy.WayPlacement:
		if spec.WPSize > 0 {
			// Reuse the TLB's own area validation (page alignment,
			// multiple-of-page size, no address-space wrap) so a bad
			// spec fails with the same error as the coupled path.
			t, err := tlb.New(base.ITLB)
			if err != nil {
				return nil, err
			}
			if err := t.SetWPArea(prog.Base, spec.WPSize); err != nil {
				return nil, err
			}
		}
		wpe, err := cache.NewWayPlacement(spec.Geometry, staticWPOracle{start: prog.Base, size: spec.WPSize})
		if err != nil {
			return nil, err
		}
		wpe.OracleHint = spec.OracleHint
		wpe.NoSameLine = spec.NoSameLine
		return &wayPlaceBulkModel{
			modelCore:          modelCore{spec: spec, fe: wpe},
			WayPlacementEngine: wpe,
		}, nil
	}
	return nil, fmt.Errorf("sim: unknown scheme %v", spec.Scheme)
}

// validateShared checks the producer-side half of the base Config.
func validateShared(base Config) error {
	if err := base.DCache.Validate(); err != nil {
		return fmt.Errorf("sim: d-cache: %w", err)
	}
	if err := base.ITLB.Validate(); err != nil {
		return fmt.Errorf("sim: i-tlb: %w", err)
	}
	if err := base.DTLB.Validate(); err != nil {
		return fmt.Errorf("sim: d-tlb: %w", err)
	}
	return nil
}

// RunMulti executes prog once on the machine described by base's
// producer-side fields and evaluates every model against the shared
// fetch stream. A model whose Prog names another binary sees the same
// stream remapped into that binary; each binary gets its own run
// segmentation and its own shared I-TLB. Results are positional:
// results[i] belongs to models[i], carrying either stats or a
// per-model error. The returned error is reserved for whole-pass
// failures — producer faults, budget exhaustion, cancellation — which
// leave no per-model results.
//
// Stats are bit-identical to running each model through the coupled
// per-cell loop (RunCoupled / RunAdaptive) on its own binary;
// internal/check's differential harness and
// check.TestSinglePassMatchesPerCell enforce this.
func RunMulti(ctx context.Context, prog *obj.Program, base Config, models []ModelSpec) ([]*ModelResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateShared(base); err != nil {
		return nil, err
	}
	results := make([]*ModelResult, len(models))

	// Behaviourally identical specs consume the stream once. Two specs
	// whose key below matches produce bit-identical cache and I-TLB
	// activity, so one consumed model serves all of them and each spec
	// gets its own finalize (energy accounting reads the spec's array
	// style). Beyond exact instruction-side duplicates this collapses
	// way-placement areas that both cover the whole text image — every
	// fetch address lies inside [Base, Base+Size()), so any area at
	// least that large saturates the static oracle — and a baseline
	// onto the way-memoization model of its binary and geometry.
	type behaviourKey struct {
		prog       *obj.Program
		geom       cache.Config
		scheme     energy.Scheme // baseline keys as way-memoization
		wp         uint32        // effective WP size; wpSaturated once ≥ text
		oracleHint bool
		noSameLine bool
	}
	const wpSaturated = ^uint32(0)
	primary := make(map[behaviourKey]int, len(models))
	aliasOf := make([]int, len(models))

	// Build models; spec problems fail per model, not the pass. Every
	// spec is built (keeping per-spec validation errors identical to the
	// coupled path) but aliases are then discarded rather than driven.
	specs := make([]ModelSpec, len(models))
	built := make([]CacheModel, len(models))
	streamOf := make([]*binaryStream, len(models))
	byProg := make(map[*obj.Program]*binaryStream)
	var streams []*binaryStream
	live := 0
	for i, spec := range models {
		aliasOf[i] = -1
		if spec.Prog == nil {
			spec.Prog = prog
		}
		specs[i] = spec
		st := byProg[spec.Prog]
		if st == nil {
			st = &binaryStream{prog: spec.Prog, block: base.ITLB.PageBytes}
			if spec.Prog != prog {
				st.addrOf, st.err = relinkAddrs(prog, spec.Prog)
			}
			byProg[spec.Prog] = st
			if st.err == nil {
				streams = append(streams, st)
			}
		}
		if st.err != nil {
			results[i] = &ModelResult{Err: st.err}
			continue
		}
		m, err := newModel(base, spec, spec.Prog)
		if err != nil {
			results[i] = &ModelResult{Err: err}
			continue
		}
		streamOf[i] = st
		if spec.Adaptive == nil {
			k := behaviourKey{
				prog:       spec.Prog,
				geom:       spec.Geometry,
				scheme:     spec.Scheme,
				oracleHint: spec.OracleHint,
				noSameLine: spec.NoSameLine,
			}
			switch spec.Scheme {
			case energy.Baseline:
				k.scheme = energy.WayMemoization
			case energy.WayPlacement:
				k.wp = spec.WPSize
				if spec.WPSize >= spec.Prog.Size() {
					k.wp = wpSaturated
				}
			}
			if p, ok := primary[k]; ok {
				aliasOf[i] = p
				continue
			}
			primary[k] = i
		}
		built[i] = m
		live++
		st.models = append(st.models, m)
		st.block = min(st.block, spec.Geometry.LineBytes)
	}
	if live == 0 {
		return results, nil
	}

	// Shared reference I-TLB per binary: lookup outcomes depend only on
	// the address stream and the TLB geometry — never on the WP area —
	// so one replay serves every non-adaptive model of the binary.
	execBlock := base.ITLB.PageBytes
	for _, st := range streams {
		if st.prog == prog {
			execBlock = st.block
		}
		for _, m := range st.models {
			if m.core().ownITLB == nil && st.shared == nil {
				t, err := tlb.New(base.ITLB)
				if err != nil {
					return nil, err
				}
				st.shared = t
			}
		}
	}

	src, err := NewFetchSource(prog, base, execBlock)
	if err != nil {
		return nil, err
	}
	var relinked FetchChunk
	var repeats repeatDetector
	for live > 0 {
		ch, err := src.NextChunk(ctx)
		if err != nil {
			return nil, err
		}
		if ch == nil {
			break
		}
		for _, st := range streams {
			if len(st.models) == 0 {
				continue
			}
			sch := ch
			if st.addrOf != nil {
				sch = st.remap(ch, prog.Base, &relinked)
			}
			sch.Repeats = repeats.find(sch)
			if st.shared != nil {
				replayRepeats(sharedITLB{st.shared}, sch)
			}
			n := 0
			for _, m := range st.models {
				if cerr := m.Consume(sch); cerr != nil {
					for i, b := range built {
						if b == m {
							results[i] = &ModelResult{Err: cerr}
							built[i] = nil
						}
					}
					live--
					continue
				}
				st.models[n] = m
				n++
			}
			st.models = st.models[:n]
		}
	}

	memHash := src.mem.Hash(cpu.StackRegionBase)
	sharedStats := func(st *binaryStream) tlb.Stats {
		if st.shared == nil {
			return tlb.Stats{}
		}
		return st.shared.Stats
	}
	for i, m := range built {
		if m == nil {
			continue
		}
		c := m.core()
		results[i] = &ModelResult{
			Stats:       c.finalize(base, src, sharedStats(streamOf[i]), memHash),
			AreaChanges: c.changes,
		}
	}
	// Alias specs finalize from their primary's consumed state; a
	// primary that failed mid-stream fails its aliases the same way.
	for i, p := range aliasOf {
		if p < 0 {
			continue
		}
		if built[p] == nil {
			results[i] = &ModelResult{Err: results[p].Err}
			continue
		}
		results[i] = &ModelResult{
			Stats: built[p].core().finalizeAs(specs[i], base, src, sharedStats(streamOf[i]), memHash),
		}
	}
	return results, nil
}

// finalize assembles one model's RunStats from the producer outcome
// and the model's instruction-side state. The coupled loop interleaves
// instruction-side stalls into the cycle count as it goes; here they
// are reconstructed in closed form — each charged stall corresponds
// one-to-one to a counted event:
//
//	cycles = producer cycles (base + data-side stalls)
//	       + TLBWalkPenalty × I-TLB misses
//	       + LineFillCycles(line) × I-cache line fills
//	       + HintExtraPenalty × way-hint extra accesses
func (m *modelCore) finalize(base Config, src *FetchSource, shared tlb.Stats, memHash uint64) *RunStats {
	return m.finalizeAs(m.spec, base, src, shared, memHash)
}

// finalizeAs assembles RunStats for spec from m's consumed state. spec
// must be behaviourally identical to m.spec (same binary, geometry,
// scheme and effective WP area, a baseline counting as
// way-memoization); it may differ in array style and in the exact WP
// size when both areas cover the text image, neither of which affects
// the counted events — only the energy model reads them.
func (m *modelCore) finalizeAs(spec ModelSpec, base Config, src *FetchSource, shared tlb.Stats, memHash uint64) *RunStats {
	istats := m.fe.Cache().Stats
	if spec.Scheme == energy.Baseline {
		istats = baselineStats(istats, spec.Geometry.Ways)
	}
	itlbStats := shared
	if m.ownITLB != nil {
		itlbStats = m.ownITLB.Stats
	}
	lineBytes := spec.Geometry.LineBytes
	cycles := src.cpu.Cycles +
		uint64(base.Timing.TLBWalkPenalty)*itlbStats.Misses +
		uint64(base.Mem.LineFillCycles(lineBytes))*istats.LineFills +
		uint64(base.Timing.HintExtraPenalty)*istats.HintExtraAccess

	memStats := src.mem.Stats
	memStats.Reads += istats.LineFills
	memStats.BytesRead += istats.LineFills * uint64(lineBytes)

	rs := &RunStats{
		Scheme:    spec.Scheme,
		Instrs:    src.cpu.Instrs,
		Cycles:    cycles,
		IStats:    istats,
		DStats:    src.dcache.Cache().Stats,
		ITLBStats: itlbStats,
		DTLBStats: src.dtlb.Stats,
		MemStats:  memStats,
		Checksum:  src.cpu.Regs[0],
		MemHash:   memHash,
	}
	rs.Energy = energy.Compute(base.Energy, energy.SystemStats{
		Scheme: spec.Scheme,
		Style:  spec.Style,
		ICfg:   spec.Geometry,
		IStats: rs.IStats,
		DCfg:   base.DCache,
		DStats: rs.DStats,
		ITLB:   rs.ITLBStats,
		DTLB:   rs.DTLBStats,
		Cycles: rs.Cycles,
	})
	return rs
}

// baselineStats derives a full-search cache's statistics from a
// way-memoization cache of the same geometry that consumed the same
// fetch stream. Way-memoization only changes how a fetch finds its
// line, never what the cache holds: every fetch hits or misses, fills
// and updates recency exactly as in the baseline, so hits, misses,
// fills and data reads carry over. The baseline then searches all W
// tags on every fetch.
func baselineStats(wm cache.Stats, ways int) cache.Stats {
	return cache.Stats{
		Fetches:            wm.Fetches,
		FullSearches:       wm.Fetches,
		TagComparisons:     uint64(ways) * wm.Fetches,
		Hits:               wm.Hits,
		Misses:             wm.Misses,
		LineFills:          wm.LineFills,
		DataReads:          wm.DataReads,
		NonDesignatedFills: wm.NonDesignatedFills,
	}
}

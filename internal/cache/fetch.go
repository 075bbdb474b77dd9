package cache

// Instruction-fetch engines. Each engine owns a Cache and implements
// one of the three fetch disciplines the paper evaluates. Engines
// return what happened per fetch; the CPU turns that into stall
// cycles, and internal/energy turns the accumulated Stats into energy.

// FetchResult describes one instruction fetch.
type FetchResult struct {
	Hit         bool // line was present (possibly after the extra access)
	Filled      bool // a line fill happened (miss serviced)
	ExtraAccess bool // way-hint mispredict forced a second cache access
}

// FetchEngine is the instruction-side cache interface used by the CPU.
type FetchEngine interface {
	// Fetch performs the instruction fetch for addr. indirect reports
	// that control arrived via an indirect transfer (a return): the
	// previous instruction could not name this target statically.
	// Way-memoization needs this — a link can only be followed
	// blindly when the transfer it memoizes is static, so indirect
	// targets always take the full-search path. The other engines
	// ignore it.
	Fetch(addr uint32, indirect bool) FetchResult
	// Cache exposes the underlying array for statistics.
	Cache() *Cache
	// Name identifies the scheme in reports.
	Name() string
}

// --- baseline ---

// BaselineEngine performs a full W-way tag search on every fetch, the
// paper's unmodified instruction cache (figure 1(b): three fetches on
// a 2-set/4-way cache cost 12 comparisons).
type BaselineEngine struct {
	c *Cache
}

// NewBaseline returns the baseline fetch engine.
func NewBaseline(cfg Config) (*BaselineEngine, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &BaselineEngine{c: c}, nil
}

// Cache returns the underlying array.
func (e *BaselineEngine) Cache() *Cache { return e.c }

// Name returns "baseline".
func (e *BaselineEngine) Name() string { return "baseline" }

// Fetch performs a full-search access.
func (e *BaselineEngine) Fetch(addr uint32, indirect bool) FetchResult {
	c := e.c
	c.Stats.Fetches++
	set, tag := c.setOf(addr), c.tagOf(addr)
	way, hit := c.probeAll(set, tag)
	if hit {
		c.Stats.Hits++
		c.touch(set, way)
		c.Stats.DataReads++
		return FetchResult{Hit: true}
	}
	c.Stats.Misses++
	c.fillAt(set, c.victim(set), tag)
	c.Stats.NonDesignatedFills++
	c.Stats.DataReads++
	return FetchResult{Filled: true}
}

// --- way-placement ---

// WPOracle answers whether an address lies in the way-placement area.
// In hardware this is the way-placement bit read from the I-TLB in
// parallel with the cache access (internal/tlb implements it); tests
// can plug in a plain function.
type WPOracle interface {
	WayPlaced(addr uint32) bool
}

// WPOracleFunc adapts a function to the WPOracle interface.
type WPOracleFunc func(addr uint32) bool

// WayPlaced calls f.
func (f WPOracleFunc) WayPlaced(addr uint32) bool { return f(addr) }

// WayPlacementEngine implements the paper's scheme: fetches predicted
// (by the 1-bit way hint) to be inside the way-placement area probe
// only the way named by the address's tag bits; everything else falls
// back to a full search. Sequential fetches within the current line
// skip tag checks entirely (section 4.2's "further modification").
type WayPlacementEngine struct {
	c      *Cache
	oracle WPOracle

	// OracleHint replaces the 1-bit way hint with perfect knowledge
	// of the way-placement bit before the access (as if the I-TLB
	// were read first, at a latency cost the paper rejects). Used by
	// the way-hint ablation.
	OracleHint bool
	// NoSameLine disables the same-line tag-check skip of section
	// 4.2. Used by the same-line ablation.
	NoSameLine bool

	wpState
	mark struct {
		cp checkpoint
		st wpState
	}
}

// wpState is the way-placement engine's per-fetch state beside the
// cache array: the way hint and the line buffer.
type wpState struct {
	hint bool // way-hint bit: was the previous fetch way-placed?

	haveLine bool
	lineAddr uint32
	lineSet  int
	lineWay  int
	lineGen  uint64
}

// NewWayPlacement returns the way-placement fetch engine.
func NewWayPlacement(cfg Config, oracle WPOracle) (*WayPlacementEngine, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &WayPlacementEngine{c: c, oracle: oracle}, nil
}

// Cache returns the underlying array.
func (e *WayPlacementEngine) Cache() *Cache { return e.c }

// Name returns "wayplace".
func (e *WayPlacementEngine) Name() string { return "wayplace" }

// sameLine reports whether addr lies in the line buffer established by
// the previous fetch and that line is still resident.
func (e *WayPlacementEngine) sameLine(addr uint32) bool {
	if !e.haveLine || e.c.lineAddr(addr) != e.lineAddr {
		return false
	}
	return e.c.lineRef(e.lineSet, e.lineWay).gen == e.lineGen
}

func (e *WayPlacementEngine) noteLine(addr uint32, set, way int) {
	e.haveLine = true
	e.lineAddr = e.c.lineAddr(addr)
	e.lineSet, e.lineWay = set, way
	e.lineGen = e.c.lineRef(set, way).gen
}

// Fetch performs one way-placement-aware fetch.
func (e *WayPlacementEngine) Fetch(addr uint32, indirect bool) FetchResult {
	c := e.c
	c.Stats.Fetches++
	inWP := e.oracle.WayPlaced(addr)
	if inWP {
		c.Stats.WPAreaFetches++
	}

	if !e.NoSameLine && e.sameLine(addr) {
		c.Stats.SameLineHits++
		c.Stats.Hits++
		c.Stats.DataReads++
		c.touch(e.lineSet, e.lineWay)
		// The way hint tracks the last *fetched* page kind; same-line
		// accesses are on the same page, so the hint is unchanged and
		// stays consistent.
		return FetchResult{Hit: true}
	}

	set, tag := c.setOf(addr), c.tagOf(addr)
	res := FetchResult{}

	hint := e.hint
	if e.OracleHint {
		hint = inWP
	}

	switch {
	case hint && inWP:
		// Predicted way-placed, and it is: single-tag probe.
		c.Stats.HintCorrectWP++
		c.Stats.WPAccesses++
		way := c.wayOf(addr)
		if c.probeOne(set, way, tag) {
			c.Stats.Hits++
			c.touch(set, way)
			c.Stats.DataReads++
			res.Hit = true
			e.noteLine(addr, set, way)
		} else {
			c.Stats.Misses++
			c.fillAt(set, way, tag)
			c.Stats.DesignatedFills++
			c.Stats.DataReads++
			res.Filled = true
			e.noteLine(addr, set, way)
		}

	case hint && !inWP:
		// Predicted way-placed but the I-TLB bit says otherwise: the
		// single-way access already happened and must be discarded; a
		// second, full access follows (cycle + energy penalty, both
		// charged — section 4.1's second scenario).
		c.Stats.HintExtraAccess++
		way := c.wayOf(addr)
		c.probeOne(set, way, tag) // wasted probe
		c.Stats.DataReads++       // wasted data read
		res.ExtraAccess = true
		res = e.fullAccess(addr, set, tag, inWP, res)

	case !hint && inWP:
		// Predicted normal but actually way-placed: we only lose the
		// energy saving (section 4.1's first scenario).
		c.Stats.HintMissedSaving++
		res = e.fullAccess(addr, set, tag, inWP, res)

	default:
		c.Stats.HintCorrectNon++
		res = e.fullAccess(addr, set, tag, inWP, res)
	}

	e.hint = inWP
	return res
}

// FetchSameLine charges n further fetches inside the current line
// buffer, in bulk. The caller guarantees every address lies in the
// line of the previous fetch, on the same page (lastAddr is one of
// them, used for the way-placement-area check — the whole run shares
// its page, so one oracle consultation covers all n). With the
// same-line optimisation on, each fetch takes the SameLineHits path:
// no tag check, hint unchanged. With it ablated (NoSameLine), each
// fetch repeats the previous fetch's access instead (repeatAccess).
func (e *WayPlacementEngine) FetchSameLine(n int, lastAddr uint32) {
	if e.NoSameLine {
		e.repeatAccess(n, lastAddr)
		return
	}
	c := e.c
	un := uint64(n)
	c.Stats.Fetches += un
	if e.oracle.WayPlaced(lastAddr) {
		c.Stats.WPAreaFetches += un
	}
	c.Stats.SameLineHits += un
	c.Stats.Hits += un
	c.Stats.DataReads += un
	c.tick += un
	c.sets[e.lineSet][e.lineWay].lastUse = c.tick
	c.mru[e.lineSet] = e.lineWay
}

// repeatAccess is FetchSameLine with the same-line skip ablated: each
// of the n fetches repeats the previous fetch's access to its line.
// The line is resident where that fetch left it, and the run shares
// its page, so every repeat lies in the way-placement area exactly when
// the previous fetch did, and the hint (the previous fetch's kind)
// predicts it. Each repeat therefore hits: a single-tag probe of the
// designated way inside the area (every way-placed line is filled
// there), a full search outside it.
func (e *WayPlacementEngine) repeatAccess(n int, lastAddr uint32) {
	c := e.c
	inWP := e.oracle.WayPlaced(lastAddr)
	un := uint64(n)
	c.Stats.Fetches += un
	if inWP {
		c.Stats.WPAreaFetches += un
		c.Stats.HintCorrectWP += un
		c.Stats.WPAccesses += un
		c.Stats.SingleSearches += un
		c.Stats.TagComparisons += un
	} else {
		c.Stats.HintCorrectNon += un
		c.Stats.FullSearches += un
		c.Stats.TagComparisons += uint64(c.Cfg.Ways) * un
	}
	c.Stats.Hits += un
	c.Stats.DataReads += un
	c.tick += un
	c.sets[e.lineSet][e.lineWay].lastUse = c.tick
	c.mru[e.lineSet] = e.lineWay
}

// Mark records the engine's state before one copy of a repeated fetch
// sequence is replayed; SkipRepeats then decides whether further copies
// can be charged without replaying them. The mark lives in the engine,
// so taking one allocates nothing.
func (e *WayPlacementEngine) Mark() {
	e.mark.cp = e.c.checkpoint()
	e.mark.st = e.wpState
}

// SkipRepeats charges k more copies of the fetches replayed since Mark,
// without replaying them, and reports whether it did. It refuses unless
// the copy filled nothing and left the hint and line buffer as it found
// them: then each further copy meets the same lines and the same state,
// takes the same paths and adds the same counts. Recency advances by k
// copies' worth of ticks; the caller replays the final copy normally so
// that lastUse and mru end where a full replay leaves them.
func (e *WayPlacementEngine) SkipRepeats(k uint64) bool {
	if !e.c.unchangedSince(&e.mark.cp) || e.wpState != e.mark.st {
		return false
	}
	e.c.repeatSince(&e.mark.cp, k)
	return true
}

// fullAccess performs a conventional all-ways access. Lines belonging
// to the way-placement area are still filled into their designated
// way: placement is a property of the address, not of how the access
// that missed happened to be performed.
func (e *WayPlacementEngine) fullAccess(addr uint32, set int, tag uint32, inWP bool, res FetchResult) FetchResult {
	c := e.c
	if way, hit := c.probeAll(set, tag); hit {
		c.Stats.Hits++
		c.touch(set, way)
		c.Stats.DataReads++
		res.Hit = true
		e.noteLine(addr, set, way)
		return res
	}
	c.Stats.Misses++
	var way int
	if inWP {
		way = c.wayOf(addr)
		c.Stats.DesignatedFills++
	} else {
		way = c.victim(set)
		c.Stats.NonDesignatedFills++
	}
	c.fillAt(set, way, tag)
	c.Stats.DataReads++
	res.Filled = true
	e.noteLine(addr, set, way)
	return res
}

// --- way-memoization ---

// WayMemoizationEngine implements Ma et al.'s scheme: every line
// carries a link per instruction slot (plus one sequential link)
// naming the way the next fetch will hit. A valid link skips all tag
// comparisons; an invalid one falls back to a full search and then
// writes the link. Links die when their target line is evicted
// (modelled precisely with per-line generation numbers).
type WayMemoizationEngine struct {
	c *Cache

	wmState
	mark struct {
		cp checkpoint
		st wmState
	}
}

// wmState is the way-memoization engine's per-fetch state beside the
// cache array: where the previous fetch was served from.
type wmState struct {
	havePrev bool
	prevAddr uint32
	prevSet  int
	prevWay  int
	prevGen  uint64
}

// NewWayMemoization returns the way-memoization fetch engine. Its
// cache is the only kind that allocates per-line link storage.
func NewWayMemoization(cfg Config) (*WayMemoizationEngine, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.links = make([]lineLinks, cfg.Sets()*cfg.Ways)
	return &WayMemoizationEngine{c: c}, nil
}

// Cache returns the underlying array.
func (e *WayMemoizationEngine) Cache() *Cache { return e.c }

// Name returns "waymem".
func (e *WayMemoizationEngine) Name() string { return "waymem" }

func (e *WayMemoizationEngine) prevLine() *line {
	return e.c.lineRef(e.prevSet, e.prevWay)
}

func (e *WayMemoizationEngine) prevLinks() *lineLinks {
	return e.c.linksRef(e.prevSet, e.prevWay)
}

// slotOf returns the instruction slot index of addr within its line.
func (e *WayMemoizationEngine) slotOf(addr uint32) int {
	return e.c.slotOf(addr)
}

// linkFor returns the link the previous fetch provides for the
// current one: the sequential link when execution ran off the end of
// the previous line, or the previous slot's branch link otherwise.
func (e *WayMemoizationEngine) linkFor(addr uint32) *link {
	if e.prevLine().gen != e.prevGen {
		// The previous line was replaced between fetches; its links
		// are gone with it.
		return nil
	}
	prev := e.prevLinks()
	if addr == e.prevAddr+4 {
		return &prev.seq
	}
	if prev.slots == nil {
		return nil
	}
	return &prev.slots[e.slotOf(e.prevAddr)]
}

// Fetch performs one way-memoizing fetch.
func (e *WayMemoizationEngine) Fetch(addr uint32, indirect bool) FetchResult {
	c := e.c
	c.Stats.Fetches++
	cfg := c.Cfg
	set, tag := c.setOf(addr), c.tagOf(addr)

	// Intra-line sequential fetch: no tag check (the same optimisation
	// the paper applies to its own scheme, section 4.2 / ref [12]).
	if e.havePrev && c.lineAddr(addr) == c.lineAddr(e.prevAddr) &&
		e.prevLine().gen == e.prevGen {
		c.Stats.SameLineHits++
		c.Stats.Hits++
		c.Stats.DataReads++
		c.touch(e.prevSet, e.prevWay)
		e.prevAddr = addr
		return FetchResult{Hit: true}
	}

	// Cross-line: consult the link left by the previous fetch.
	// Indirect transfers (returns) cannot be memoized: the link in the
	// return instruction's slot names whatever call site ran last, and
	// following it blindly would deliver the wrong line, so the
	// hardware always takes the verified full-search path for them.
	if e.havePrev && !indirect {
		if lk := e.linkFor(addr); lk != nil && lk.valid {
			lset, lway := int(lk.set), int(lk.way)
			if lk.gen == c.lineRef(lset, lway).gen && lset == set &&
				c.lineRef(lset, lway).tag == tag {
				// Valid link: zero tag comparisons.
				c.Stats.LinkedAccesses++
				c.Stats.Hits++
				c.Stats.DataReads++
				c.touch(lset, lway)
				e.note(addr, lset, lway)
				return FetchResult{Hit: true}
			}
			// Link points at a replaced or mismatching line: it has
			// been invalidated by the eviction logic.
			c.Stats.StaleLinks++
			lk.valid = false
		}
	}

	// No usable link: conventional access, then memoize.
	res := FetchResult{}
	way, hit := c.probeAll(set, tag)
	if hit {
		c.Stats.Hits++
		c.touch(set, way)
		c.Stats.DataReads++
		res.Hit = true
	} else {
		c.Stats.Misses++
		way = c.victim(set)
		c.fillAt(set, way, tag)
		c.Stats.NonDesignatedFills++
		c.Stats.DataReads++
		res.Filled = true
	}
	// Write the link into the previous line (if it survived). Links
	// are only written for static transfers, matching the follow rule.
	if e.havePrev && !indirect {
		if e.prevLine().gen == e.prevGen {
			prev := e.prevLinks()
			target := link{valid: true, set: int32(set), way: int32(way), gen: c.lineRef(set, way).gen}
			if addr == e.prevAddr+4 {
				prev.seq = target
			} else {
				if prev.slots == nil {
					prev.slots = make([]link, cfg.InstrsPerLine())
				}
				prev.slots[e.slotOf(e.prevAddr)] = target
			}
			c.Stats.LinkWrites++
		}
	}
	e.note(addr, set, way)
	return res
}

// FetchSameLine charges n further fetches inside the previous fetch's
// line, in bulk. The caller guarantees every address lies in that line
// (the intra-line path ignores the indirect flag, so any same-line
// transfer qualifies). lastAddr must be the last of the n addresses:
// the next cross-line fetch consults the link slot of the previous
// *address*, so the memoization state has to end exactly where n
// individual Fetch calls would leave it.
func (e *WayMemoizationEngine) FetchSameLine(n int, lastAddr uint32) {
	c := e.c
	un := uint64(n)
	c.Stats.Fetches += un
	c.Stats.SameLineHits += un
	c.Stats.Hits += un
	c.Stats.DataReads += un
	c.tick += un
	c.sets[e.prevSet][e.prevWay].lastUse = c.tick
	c.mru[e.prevSet] = e.prevWay
	e.prevAddr = lastAddr
}

// Mark records the engine's state before one copy of a repeated fetch
// sequence is replayed (see WayPlacementEngine.Mark).
func (e *WayMemoizationEngine) Mark() {
	e.mark.cp = e.c.checkpoint()
	e.mark.st = e.wmState
}

// SkipRepeats charges k more copies of the fetches replayed since Mark
// and reports whether it did (see WayPlacementEngine.SkipRepeats).
// Besides filling nothing and ending in the marked state, the copy must
// have written and invalidated no link: links are the one part of the
// array a hit can change.
func (e *WayMemoizationEngine) SkipRepeats(k uint64) bool {
	m := &e.mark
	if !e.c.unchangedSince(&m.cp) || e.wmState != m.st ||
		e.c.Stats.LinkWrites != m.cp.stats.LinkWrites ||
		e.c.Stats.StaleLinks != m.cp.stats.StaleLinks {
		return false
	}
	e.c.repeatSince(&m.cp, k)
	return true
}

func (e *WayMemoizationEngine) note(addr uint32, set, way int) {
	e.havePrev = true
	e.prevAddr = addr
	e.prevSet, e.prevWay = set, way
	e.prevGen = e.c.lineRef(set, way).gen
}

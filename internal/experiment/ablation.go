package experiment

import (
	"context"
	"fmt"
	"strings"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// Ablations for the design choices DESIGN.md calls out. Each returns
// suite-average normalised (I-cache energy, ED) pairs on the
// 32KB/32-way cache. The layout and hint ablations use a deliberately
// tight 2KB way-placement area: with the paper's default 16KB area
// every benchmark's whole text is way-placed, so where code sits — and
// how often the fetch stream crosses the area boundary — only matters
// when the area is scarce.
//
// The hint, same-line and replacement ablations are ordinary engine
// cells (the switches ride on engine.RunSpec.OracleHint/NoSameLine and
// cache.Config.Policy), so they are memoised, coalesced into shared
// fetch passes, and runnable against a remote engine. The layout
// ablation's profile-guided leg and every baseline are engine cells
// too. Only its other binaries (original, random, Pettis-Hansen) fall
// outside the engine's cell grid: all three are relinks of the same
// unit, so they run as one sim.RunMulti pass per workload, a single
// execution whose fetch stream is remapped into each binary.

// AblationRow is one variant's result.
type AblationRow struct {
	Variant string
	Pair
}

// vsBaseline normalises a 32KB/32-way run of w against w's memoised
// baseline cell, rejecting a variant that changed what the program
// computes.
func (s *Suite) vsBaseline(ctx context.Context, w *Workload, rs *sim.RunStats) (Pair, error) {
	baseRes, err := s.RunSpec(ctx, spec(w, XScaleICache(), energy.Baseline, 0))
	if err != nil {
		return Pair{}, err
	}
	base := baseRes.Stats
	if rs.Checksum != base.Checksum {
		return Pair{}, fmt.Errorf("%s: variant changed the checksum: %#x vs %#x",
			w.Name, rs.Checksum, base.Checksum)
	}
	return pairOf(rs, base), nil
}

// placedTightPair runs w's profile-guided binary under the scarce area
// as an ordinary engine cell and normalises it against the baseline.
func (s *Suite) placedTightPair(ctx context.Context, w *Workload) (Pair, error) {
	res, err := s.RunSpec(ctx, spec(w, XScaleICache(), energy.WayPlacement, tightWPSize))
	if err != nil {
		return Pair{}, err
	}
	return s.vsBaseline(ctx, w, res.Stats)
}

func (s *Suite) wpConfig(wpSize uint32) sim.Config {
	cfg := s.Base
	cfg.ICache = XScaleICache()
	cfg.MaxInstrs = MaxInstrs
	cfg.Scheme = energy.WayPlacement
	cfg.WPSize = wpSize
	return cfg
}

// tightWPSize is the scarce way-placement area used by the layout and
// hint ablations.
const tightWPSize = 2 << 10

// flagVariant is one engine-expressible ablation variant: a cell
// template applied to every workload, normalised against a baseline
// cell on the same cache geometry.
type flagVariant struct {
	name     string
	template engine.RunSpec // Workload filled in per benchmark
}

func hintVariants() []flagVariant {
	wp := engine.RunSpec{ICache: XScaleICache(), Scheme: energy.WayPlacement, WPSize: tightWPSize}
	oracle := wp
	oracle.OracleHint = true
	return []flagVariant{
		{"1-bit way hint", wp},
		{"oracle hint", oracle},
	}
}

func sameLineVariants() []flagVariant {
	wp := engine.RunSpec{ICache: XScaleICache(), Scheme: energy.WayPlacement, WPSize: InitialWPSize}
	off := wp
	off.NoSameLine = true
	return []flagVariant{
		{"same-line skip on", wp},
		{"same-line skip off", off},
	}
}

func replacementVariants() []flagVariant {
	rr := engine.RunSpec{ICache: XScaleICache(), Scheme: energy.WayPlacement, WPSize: InitialWPSize}
	lru := rr
	lru.ICache.Policy = cache.LRU
	return []flagVariant{
		{"round-robin (XScale)", rr},
		{"true LRU", lru},
	}
}

// variantSpecs expands one variant into its grid: a baseline cell and
// a variant cell per workload, stride 2.
func (s *Suite) variantSpecs(v flagVariant) []engine.RunSpec {
	specs := make([]engine.RunSpec, 0, 2*len(s.Workloads))
	for _, w := range s.Workloads {
		cell := v.template
		cell.Workload = w.Name
		specs = append(specs, spec(w, v.template.ICache, energy.Baseline, 0), cell)
	}
	return specs
}

// averageGrid runs one engine-expressible variant across the suite as
// a single batch and averages the normalised pairs in workload order.
func (s *Suite) averageGrid(ctx context.Context, v flagVariant) (AblationRow, error) {
	row := AblationRow{Variant: v.name}
	res, err := s.RunBatch(ctx, s.variantSpecs(v))
	if err != nil {
		return row, err
	}
	for i, w := range s.Workloads {
		base, got := res[2*i].Stats, res[2*i+1].Stats
		if got.Checksum != base.Checksum {
			return row, fmt.Errorf("%s: variant changed the checksum: %#x vs %#x",
				w.Name, got.Checksum, base.Checksum)
		}
		addPair(&row.Pair, pairOf(got, base))
	}
	n := float64(len(s.Workloads))
	row.Energy /= n
	row.ED /= n
	return row, nil
}

// flagAblationRows runs a set of engine-expressible variants in order.
func (s *Suite) flagAblationRows(ctx context.Context, variants []flagVariant) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		row, err := s.averageGrid(ctx, v)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationLayout quantifies how much of the saving is the compiler
// pass itself: the way-placement hardware running over the profile-
// guided layout, the original layout, a random (constraint-
// respecting) permutation, and a classical Pettis/Hansen-style
// affinity layout (which optimises adjacency, not front-loading).
func (s *Suite) AblationLayout(ctx context.Context) ([]AblationRow, error) {
	rows := []AblationRow{
		{Variant: "profile-guided layout"},
		{Variant: "original layout"},
		{Variant: "random layout"},
		{Variant: "Pettis-Hansen affinity"},
	}
	pairs := make([][]Pair, len(s.Workloads)) // workload x row
	idx := make(map[string]int, len(s.Workloads))
	for i, w := range s.Workloads {
		idx[w.Name] = i
	}
	err := s.forEach(ctx, func(ctx context.Context, w *Workload) error {
		random, err := layout.LinkPermuted(w.Unit, 0xabcdef, TextBase)
		if err != nil {
			return err
		}
		ph, err := layout.LinkPettisHansen(w.Unit, w.Profile, TextBase)
		if err != nil {
			return err
		}
		cfg := s.wpConfig(tightWPSize)
		progs := []*obj.Program{w.Original, random, ph}
		models := make([]sim.ModelSpec, len(progs))
		for i, prog := range progs {
			models[i] = sim.ModelSpecOf(cfg)
			models[i].Prog = prog
		}
		res, err := sim.RunMulti(ctx, w.Original, cfg, models)
		if err != nil {
			return err
		}
		p := make([]Pair, len(rows))
		if p[0], err = s.placedTightPair(ctx, w); err != nil {
			return err
		}
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("%s: %s: %w", w.Name, rows[i+1].Variant, r.Err)
			}
			if p[i+1], err = s.vsBaseline(ctx, w, r.Stats); err != nil {
				return err
			}
		}
		pairs[idx[w.Name]] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(s.Workloads))
	for j := range rows {
		for _, p := range pairs {
			addPair(&rows[j].Pair, p[j])
		}
		rows[j].Energy /= n
		rows[j].ED /= n
	}
	return rows, nil
}

// AblationHint compares the 1-bit way hint against oracle knowledge
// of the way-placement bit — the cost of predicting instead of
// serialising on the I-TLB.
func (s *Suite) AblationHint(ctx context.Context) ([]AblationRow, error) {
	return s.flagAblationRows(ctx, hintVariants())
}

// AblationSameLine measures the contribution of the same-line
// tag-check skip (section 4.2's "further modification").
func (s *Suite) AblationSameLine(ctx context.Context) ([]AblationRow, error) {
	return s.flagAblationRows(ctx, sameLineVariants())
}

// AblationReplacement checks that the scheme is insensitive to the
// replacement policy (explicit placement bypasses it for hot lines).
func (s *Suite) AblationReplacement(ctx context.Context) ([]AblationRow, error) {
	return s.flagAblationRows(ctx, replacementVariants())
}

// FormatAblation renders ablation rows.
func FormatAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s (suite average, 32KB/32-way)\n", title)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-24s I$ energy %.1f%%  ED %.3f\n", r.Variant, 100*r.Energy, r.ED)
	}
	return sb.String()
}

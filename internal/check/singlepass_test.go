package check

import (
	"context"
	"errors"
	"testing"

	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// TestSinglePassMatchesPerCell sweeps the whole benchmark suite on the
// Small inputs and compares one sim.RunMulti pass per benchmark — the
// original, placed, random and Pettis-Hansen binaries with mixed
// geometries, line sizes, schemes, ablation switches and the adaptive
// policy, all served by a single execution — field by field against
// sequential per-cell execution of each binary through the coupled
// reference loop. Zero divergence in any statistic is the acceptance
// bar for the single-pass machinery.
func TestSinglePassMatchesPerCell(t *testing.T) {
	base := sim.Default()
	base.MaxInstrs = 200_000_000

	// Geometry zoo: the default 32KB/32-way, a small low-associativity
	// corner, a wide-line configuration (line larger than the
	// segmentation block of line-32 models), an LRU variant, and a
	// thrashing 1KB/2-way cache whose loop copies keep missing, so the
	// replay's repeat fast-forward is refused as well as taken.
	geoDefault := base.ICache
	geoSmall := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, Policy: cache.RoundRobin}
	geoWide := cache.Config{SizeBytes: 16 << 10, Ways: 16, LineBytes: 64, Policy: cache.RoundRobin}
	geoLRU := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, Policy: cache.LRU}
	geoThrash := cache.Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 32, Policy: cache.RoundRobin}

	pol := sim.DefaultAdaptivePolicy(geoDefault, base.ITLB.PageBytes)

	originalModels := []sim.ModelSpec{
		{Geometry: geoDefault, Scheme: energy.Baseline},
		{Geometry: geoSmall, Scheme: energy.Baseline},
		{Geometry: geoWide, Scheme: energy.Baseline, Style: energy.RAMTag},
		{Geometry: geoLRU, Scheme: energy.Baseline},
		{Geometry: geoDefault, Scheme: energy.WayMemoization},
		{Geometry: geoWide, Scheme: energy.WayMemoization},
		{Geometry: geoThrash, Scheme: energy.WayMemoization},
	}
	placedModels := []sim.ModelSpec{
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 16 << 10},
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 2 << 10},
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 2 << 10, OracleHint: true},
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 16 << 10, NoSameLine: true},
		{Geometry: geoSmall, Scheme: energy.WayPlacement, WPSize: 4 << 10},
		{Geometry: geoWide, Scheme: energy.WayPlacement, WPSize: 8 << 10},
		{Geometry: geoLRU, Scheme: energy.WayPlacement, WPSize: 2 << 10},
		{Geometry: geoThrash, Scheme: energy.WayPlacement, WPSize: 1 << 10},
		{Geometry: geoDefault, Adaptive: &pol},
	}
	// The layout ablation's relinks, under the scarce area where layout
	// matters, with and without the same-line skip, plus the adaptive
	// policy and a baseline derived from way-memoization.
	relinkModels := []sim.ModelSpec{
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 2 << 10},
		{Geometry: geoWide, Scheme: energy.WayPlacement, WPSize: 2 << 10, NoSameLine: true},
		{Geometry: geoDefault, Adaptive: &pol},
		{Geometry: geoSmall, Scheme: energy.Baseline},
		{Geometry: geoSmall, Scheme: energy.WayMemoization},
	}

	for _, b := range bench.All() {
		b := b
		if testing.Short() && !shortSuite[b.Name] {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			u, err := b.Build(bench.Small)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			original, err := layout.LinkOriginal(u, textBase)
			if err != nil {
				t.Fatalf("link original: %v", err)
			}
			prof, _, err := sim.ProfileRun(original, base.MaxInstrs)
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			placed, err := layout.Link(u, prof, textBase)
			if err != nil {
				t.Fatalf("link placed: %v", err)
			}
			random, err := layout.LinkPermuted(u, 0xabcdef, textBase)
			if err != nil {
				t.Fatalf("link random: %v", err)
			}
			ph, err := layout.LinkPettisHansen(u, prof, textBase)
			if err != nil {
				t.Fatalf("link Pettis-Hansen: %v", err)
			}

			var models []sim.ModelSpec
			var names []string
			add := func(kind string, prog *obj.Program, specs []sim.ModelSpec) {
				for _, m := range specs {
					m.Prog = prog
					models = append(models, m)
					names = append(names, kind)
				}
			}
			add("original", original, originalModels)
			add("placed", placed, placedModels)
			add("random", random, relinkModels)
			add("pettis-hansen", ph, relinkModels)

			ctx := context.Background()
			multi, err := sim.RunMulti(ctx, original, base, models)
			if err != nil {
				t.Fatalf("RunMulti: %v", err)
			}
			for i, spec := range models {
				if multi[i].Err != nil {
					t.Errorf("%s model %d: %v", names[i], i, multi[i].Err)
					continue
				}
				want, wantChanges, err := coupledReference(ctx, base, spec)
				if err != nil {
					t.Fatalf("%s model %d: per-cell reference: %v", names[i], i, err)
				}
				for _, d := range StatDiffs(multi[i].Stats, want) {
					t.Errorf("%s model %d (%+v): %s", names[i], i, spec, d)
				}
				if spec.Adaptive == nil {
					continue
				}
				if len(multi[i].AreaChanges) != len(wantChanges) {
					t.Errorf("%s model %d: %d area changes, want %d",
						names[i], i, len(multi[i].AreaChanges), len(wantChanges))
					continue
				}
				for j := range wantChanges {
					if multi[i].AreaChanges[j] != wantChanges[j] {
						t.Errorf("%s model %d: area change %d = %+v, want %+v",
							names[i], i, j, multi[i].AreaChanges[j], wantChanges[j])
					}
				}
			}
		})
	}
}

// coupledReference runs one model spec on its own binary through the
// coupled per-cell loop.
func coupledReference(ctx context.Context, base sim.Config, spec sim.ModelSpec) (*sim.RunStats, []sim.AreaChange, error) {
	if spec.Adaptive != nil {
		cfg := base
		cfg.ICache = spec.Geometry
		return sim.RunAdaptive(ctx, spec.Prog, cfg, *spec.Adaptive)
	}
	cfg := base
	cfg.ICache = spec.Geometry
	cfg.Scheme = spec.Scheme
	cfg.Style = spec.Style
	cfg.WPSize = spec.WPSize
	cfg.OracleHint = spec.OracleHint
	cfg.NoSameLine = spec.NoSameLine
	rs, err := sim.RunCoupled(ctx, spec.Prog, cfg)
	return rs, nil, err
}

// TestSinglePassRejectsForeignBinary: a model whose binary is not a
// relink of the executing program's unit cannot share its fetch
// stream. It fails alone, with ErrNotRelink; the pass's other models
// still match the coupled reference.
func TestSinglePassRejectsForeignBinary(t *testing.T) {
	base := sim.Default()
	base.MaxInstrs = 200_000_000
	link := func(name string) *obj.Program {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		u, err := b.Build(bench.Small)
		if err != nil {
			t.Fatal(err)
		}
		p, err := layout.LinkOriginal(u, textBase)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	crc := link("crc")
	// A second build of the same benchmark has the same code but not
	// the same blocks: relinks are recognised by block identity.
	rebuilt, sha := link("crc"), link("sha")

	wp := sim.ModelSpec{Geometry: base.ICache, Scheme: energy.WayPlacement, WPSize: 2 << 10}
	foreign := []sim.ModelSpec{wp, wp, wp}
	foreign[1].Prog = sha
	foreign[2].Prog = rebuilt
	res, err := sim.RunMulti(context.Background(), crc, base, foreign)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	for i := 1; i < len(res); i++ {
		if !errors.Is(res[i].Err, sim.ErrNotRelink) {
			t.Errorf("model %d on a foreign binary: err = %v, want ErrNotRelink", i, res[i].Err)
		}
	}
	if res[0].Err != nil {
		t.Fatalf("model on the executing binary failed: %v", res[0].Err)
	}
	wp.Prog = crc
	want, _, err := coupledReference(context.Background(), base, wp)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range StatDiffs(res[0].Stats, want) {
		t.Errorf("surviving model: %s", d)
	}

	// Without block records there is no identity to match: two images
	// with equal code and data are still not known to be relinks.
	bareExec, bareOther := *crc, *crc
	bareExec.Placed, bareOther.Placed = nil, nil
	wp.Prog = &bareOther
	res, err = sim.RunMulti(context.Background(), &bareExec, base, []sim.ModelSpec{wp})
	if err != nil {
		t.Fatalf("RunMulti over bare images: %v", err)
	}
	if !errors.Is(res[0].Err, sim.ErrNotRelink) {
		t.Errorf("model on a bare image: err = %v, want ErrNotRelink", res[0].Err)
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/sim"
)

// The figure-4 suite averages every run must reproduce, as the CSV
// prints them (results/fig4.csv, "average" row).
const (
	wantWPEnergy     = "0.471963"
	wantWayMemEnergy = "0.714573"
	wantWPED         = "0.930307"
)

// One full evaluation executes exactly this many instructions in the
// engine's single-pass groups (producer) and drives this many through
// the cache models. Both are properties of the benchmarks and the
// grid, not of the host: any change means a different simulation.
const (
	gridProducerInstrs = 73_567_850
	gridModelInstrs    = 1_765_628_400
)

// figure is one CSV the grid regenerates and compares byte for byte.
var figures = []string{"fig4.csv", "fig5.csv", "fig6.csv"}

// gridRunner is the experiment.Runner the suite's standard grids go
// through: the suite's own engine, counted and (when tracing) timed.
type gridRunner struct {
	eng    *engine.Engine
	tr     *tracer
	parent atomic.Int64 // the running section's span id
	cells  atomic.Int64
	failed atomic.Int64

	mu     sync.Mutex
	calls  int
	passes *passes
}

func (g *gridRunner) Run(ctx context.Context, specs []engine.RunSpec, opts ...engine.Option) ([]*engine.Result, error) {
	start := time.Now()
	res, err := g.eng.Run(ctx, specs, opts...)
	g.tr.timed(spanEngine, start, g.parent.Load())
	g.cells.Add(int64(len(specs)))
	var merr *engine.MultiError
	switch {
	case errors.As(err, &merr):
		g.failed.Add(int64(len(merr.Errors)))
	case err != nil:
		g.failed.Add(int64(len(specs)))
	}
	g.mu.Lock()
	g.calls++
	scope := strconv.Itoa(g.calls)
	for _, r := range res {
		if r != nil && !r.CacheHit && r.GroupID != "" {
			g.passes.add(scope, r.GroupID, r.Spec.ICache.LineBytes, r.Stats.Instrs)
		}
	}
	g.mu.Unlock()
	return res, err
}

// runGrid is the paper evaluation a no-flag wpbench runs, repeated on
// a fresh suite (set-up: prepare all 23 benchmarks) until the timed
// evaluations add up to the run length. A traced run does one.
func runGrid(ctx context.Context, cfg *config, tr *tracer) (*runResult, error) {
	want := map[string][]byte{}
	for _, f := range figures {
		b, err := os.ReadFile(filepath.Join(cfg.root, "results", f))
		if err != nil {
			return nil, err
		}
		want[f] = b
	}
	r := &runResult{}
	newSuite := func() (*experiment.Suite, error) {
		start := time.Now()
		s, err := experiment.NewSuiteOf(cfg.names, engine.WithWorkers(workers), engine.WithVerify(tr.verifier()))
		r.setup = append(r.setup, time.Since(start).Seconds())
		return s, err
	}
	// Preparing is quick next to an evaluation, so untraced runs take
	// extra set-up samples up front.
	if tr == nil {
		for i := 0; i < 4*setups; i++ {
			if _, err := newSuite(); err != nil {
				return nil, err
			}
		}
	}
	var rates []float64
	var timed time.Duration
	for iter := 0; ; iter++ {
		suite, err := newSuite()
		if err != nil {
			return nil, err
		}
		run := &gridRunner{eng: suite.Engine(), tr: tr, passes: newPasses()}
		suite.SetRunner(run)
		mark := markMem()
		start := time.Now()
		csv, fig4, errs := evaluate(ctx, suite, run, tr, iter)
		wall := time.Since(start)

		r.attempted += int(run.cells.Load()) + len(evalSections)
		r.failed += int(run.failed.Load())
		for _, err := range errs {
			r.fail("grid: %v", err)
		}
		r.attempted += len(figures) + 1
		for _, f := range figures {
			if !bytes.Equal(csv[f], want[f]) {
				r.fail("grid: %s differs from results/%s", f, f)
			}
		}
		if fig4 != nil {
			r.model = model{fig4.Average.WayPlace.Energy, fig4.Average.WayMem.Energy, fig4.Average.WayPlace.ED}
		}
		checkModel(r, "grid")
		if got := run.passes.producerInstrs(); got != gridProducerInstrs || run.passes.modelInstrs != gridModelInstrs {
			r.fail("grid: evaluation executed %d producer and %d model instructions, want %d and %d",
				got, run.passes.modelInstrs, uint64(gridProducerInstrs), uint64(gridModelInstrs))
		}
		ok := run.cells.Load() - run.failed.Load()
		rates = append(rates, float64(ok)/wall.Seconds())
		r.batchMS = append(r.batchMS, ms(wall))
		timed += wall
		if tr != nil {
			if err := gridLayers(ctx, r, cfg, suite, run, tr, mark, int(ok)); err != nil {
				return nil, err
			}
		}
		if tr != nil || timed >= cfg.seconds {
			break
		}
	}
	r.cellsPerS = median(rates)
	r.detail = map[string]any{"evaluations": len(rates), "cells_per_s_samples": rates}
	return r, nil
}

// checkModel is one output check: the figure-4 averages must be
// exactly the paper reproduction's.
func checkModel(r *runResult, where string) {
	r.attempted++
	got := fmt.Sprintf("%.6f %.6f %.6f", r.model.WPEnergy, r.model.WayMemEnergy, r.model.WPED)
	if want := wantWPEnergy + " " + wantWayMemEnergy + " " + wantWPED; got != want {
		r.fail("%s: figure-4 averages (wp energy, waymem energy, wp ED) are %s, want %s", where, got, want)
	}
}

// evalSections are the steps of the full evaluation, in wpbench order.
var evalSections = []string{
	"warmup", "fig4", "fig5", "fig6",
	"ext-ramtag", "ext-adaptive", "ext-transfer",
	"abl-layout", "abl-hint", "abl-sameline", "abl-replacement",
}

// evaluate runs every step of the evaluation once, rendering the
// figure CSVs and the text tables wpbench prints.
func evaluate(ctx context.Context, s *experiment.Suite, run *gridRunner, tr *tracer, iter int) (map[string][]byte, *experiment.Fig4Result, []error) {
	csv := map[string][]byte{}
	var fig4 *experiment.Fig4Result
	var text strings.Builder
	ablation := func(title string, fn func(context.Context) ([]experiment.AblationRow, error)) func() error {
		return func() error {
			rows, err := fn(ctx)
			text.WriteString(experiment.FormatAblation(title, rows))
			return err
		}
	}
	steps := map[string]func() error{
		"warmup": func() error {
			_, err := s.RunBatch(ctx, s.WarmupSpecs())
			return err
		},
		"fig4": func() error {
			r, err := s.Figure4(ctx)
			if err != nil {
				return err
			}
			fig4 = r
			var b bytes.Buffer
			err = experiment.CSVFig4(&b, r)
			csv["fig4.csv"] = b.Bytes()
			text.WriteString(experiment.FormatFig4(r))
			return err
		},
		"fig5": func() error {
			r, err := s.Figure5(ctx)
			if err != nil {
				return err
			}
			var b bytes.Buffer
			err = experiment.CSVFig5(&b, r)
			csv["fig5.csv"] = b.Bytes()
			text.WriteString(experiment.FormatFig5(r))
			return err
		},
		"fig6": func() error {
			r, err := s.Figure6(ctx)
			if err != nil {
				return err
			}
			var b bytes.Buffer
			err = experiment.CSVFig6(&b, r)
			csv["fig6.csv"] = b.Bytes()
			text.WriteString(experiment.FormatFig6(r))
			return err
		},
		"ext-ramtag": func() error {
			rows, err := s.ExtensionRAMTag(ctx)
			text.WriteString(experiment.FormatRAMTag(rows))
			return err
		},
		"ext-adaptive": func() error {
			rows, err := s.ExtensionAdaptive(ctx)
			text.WriteString(experiment.FormatAdaptive(rows))
			return err
		},
		"ext-transfer": func() error {
			rows, err := s.ExtensionProfileTransfer(ctx)
			text.WriteString(experiment.FormatTransfer(rows))
			return err
		},
		"abl-layout":      ablation("code layout", s.AblationLayout),
		"abl-hint":        ablation("way-hint prediction", s.AblationHint),
		"abl-sameline":    ablation("same-line tag skip", s.AblationSameLine),
		"abl-replacement": ablation("replacement policy", s.AblationReplacement),
	}
	var errs []error
	for _, name := range evalSections {
		id := tr.id()
		run.parent.Store(id)
		start := time.Now()
		err := steps[name]()
		tr.add(span{ID: id, Name: spanSection, Req: fmt.Sprintf("grid-%d-%s", iter, name),
			Start: tr.since(start), End: tr.since(time.Now())})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}
	return csv, fig4, errs
}

// gridLayers derives the grid's per-layer metrics from one traced
// evaluation.
func gridLayers(ctx context.Context, r *runResult, cfg *config, suite *experiment.Suite, run *gridRunner, tr *tracer, mark memMark, cells int) error {
	goLayers(r, mark, cells)
	countsOf(suite.Engine()).report(r, engineCounts{})
	checkStoreLayers(r, tr, 0)
	eng := tr.named(spanEngine)
	var runT time.Duration
	for _, s := range eng {
		runT += s.dur()
	}
	r.layer("engine.run_s", "s", runT.Seconds())
	r.layer("engine.batch_ms_p50", "ms", median(durationsMS(eng)))

	for _, name := range cfg.names {
		start := time.Now()
		if _, err := experiment.Prepare(name); err != nil {
			return err
		}
		tr.timed(spanPrepare, start, 0)
	}
	prepareLayer(r, tr)

	progs := map[string]*engine.Workload{}
	for _, w := range suite.Workloads {
		progs[w.Name] = &engine.Workload{Name: w.Name, Original: w.Original, Placed: w.Placed}
	}
	drains, err := simLayers(ctx, r, run.passes, progs)
	if err != nil {
		return err
	}
	// RunMulti over each stream with the model specs the evaluation's
	// single-pass groups drove (the warmup batch's unique cells).
	models := map[string][]sim.ModelSpec{}
	seen := map[engine.RunSpec]bool{}
	for _, s := range suite.WarmupSpecs() {
		if seen[s] {
			continue
		}
		seen[s] = true
		group := s.Workload + "/original"
		if s.Scheme == energy.WayPlacement || s.Adaptive.Enabled() {
			group = s.Workload + "/placed"
		}
		models[group] = append(models[group], modelSpec(s))
	}
	var streams []stream
	for s := range drains {
		streams = append(streams, s)
	}
	var mu sync.Mutex
	var multi, producer time.Duration
	err = forStreams(streams, func(s stream) error {
		start := time.Now()
		res, err := sim.RunMulti(ctx, streamProg(progs, s.group), baseConfig(), models[s.group])
		d := time.Since(start)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		multi += d
		producer += drains[s]
		for _, m := range res {
			if m.Err != nil || m.Stats.Instrs != run.passes.length[s.group] {
				r.fail("sim: RunMulti over %s disagrees with the evaluation", s.group)
				break
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer("sim.runmulti_s", "s", multi.Seconds())
	r.layer("sim.models_s", "s", (multi - producer).Seconds())
	return nil
}

// modelSpec is the instruction-side model a grid cell contributes to
// its single-pass group, under the default base machine.
func modelSpec(s engine.RunSpec) sim.ModelSpec {
	if s.Adaptive.Enabled() {
		pol := s.Adaptive.Policy()
		return sim.ModelSpec{Geometry: s.ICache, Adaptive: &pol}
	}
	return sim.ModelSpec{Geometry: s.ICache, Scheme: s.Scheme, Style: s.Style, WPSize: s.WPSize,
		OracleHint: s.OracleHint, NoSameLine: s.NoSameLine}
}

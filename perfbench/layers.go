package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// layerUnits lists every per-layer metric with its unit, in request
// order. A traced run reports all of them; a layer that does no work
// on a workload, or is not measured there, reports 0 (README.md says
// which).
var layerUnits = []struct{ name, unit string }{
	{"experiment.prepare_s", "s"},
	{"sim.producer_instrs", "count"},
	{"sim.producer_s", "s"},
	{"sim.producer_minstrs_per_s", "Minstr/s"},
	{"sim.runmulti_s", "s"},
	{"sim.models_s", "s"},
	{"sim.model_instrs", "count"},
	{"sim.models_per_pass", "count"},
	{"engine.run_s", "s"},
	{"engine.batch_ms_p50", "ms"},
	{"engine.hits", "count"},
	{"engine.misses", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.groups", "count"},
	{"engine.cells_per_group", "count"},
	{"check.verify_calls", "count"},
	{"check.verify_us_per_call", "us"},
	{"check.verify_s", "s"},
	{"store.loads", "count"},
	{"store.load_hit_ratio", "ratio"},
	{"store.load_us_p50", "us"},
	{"store.saves", "count"},
	{"store.save_us_p50", "us"},
	{"store.flush_s", "s"},
	{"api.decode_us_per_cell", "us"},
	{"api.encode_us_per_cell", "us"},
	{"api.response_bytes_per_cell", "bytes"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_tail", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.admit_wait_ms_mean", "ms"},
	{"serve.rejected", "count"},
	{"fleet.coord_ms_p50", "ms"},
	{"fleet.backend_ms_p50", "ms"},
	{"fleet.scatter_self_ms_p50", "ms"},
	{"fleet.subbatches_per_batch", "count"},
	{"fleet.backend_cell_skew", "ratio"},
	{"fleet.simulations_per_cell", "ratio"},
	{"client.request_ms_p50", "ms"},
	{"client.self_ms_p50", "ms"},
	{"client.retries", "count"},
	{"go.alloc_mb_per_kcell", "MB"},
	{"go.gc_cycles", "count"},
	{"trace_overhead_ratio", "ratio"},
}

// fillLayers reports 0 for every per-layer metric the workload left
// unset.
func fillLayers(r *runResult) {
	for _, l := range layerUnits {
		if _, ok := r.layers[l.name]; !ok {
			r.layer(l.name, l.unit, 0)
		}
	}
}

// stream is one fetch stream as a single-pass group runs it: the group
// ("<workload>/original|placed", engine.Result.GroupID) and the
// fetch-run block its cells' smallest cache line sets.
type stream struct {
	group string
	block int
}

type passKey struct{ scope, group string }

// passes counts the single-pass simulations a workload caused, from
// the results it got back: a pass is one group within one engine
// batch. Both instruction counts are exact: the producer executes each
// pass's stream once, and every fresh cell's cache model consumes the
// whole stream.
type passes struct {
	block       map[passKey]int   // pass -> fetch-run block
	length      map[string]uint64 // group -> instructions in its stream
	models      int               // fresh cells
	modelInstrs uint64            // model-consumed instructions
}

func newPasses() *passes {
	return &passes{block: map[passKey]int{}, length: map[string]uint64{}}
}

// pageBytes is the I-TLB page, which caps a pass's fetch-run block.
var pageBytes = baseConfig().ITLB.PageBytes

// add records one fresh cell of group, simulated in the engine batch
// named scope on a cache with line-byte lines, whose run executed
// instrs instructions.
func (p *passes) add(scope, group string, line int, instrs uint64) {
	p.models++
	p.modelInstrs += instrs
	p.length[group] = instrs
	k := passKey{scope, group}
	if b, ok := p.block[k]; !ok || line < b {
		p.block[k] = min(line, pageBytes)
	}
}

// producerInstrs is what the producer executed: each pass's stream once.
func (p *passes) producerInstrs() uint64 {
	var n uint64
	for k := range p.block {
		n += p.length[k.group]
	}
	return n
}

// streams counts the passes of each stream.
func (p *passes) streams() map[stream]int {
	out := map[stream]int{}
	for k, b := range p.block {
		out[stream{k.group, b}]++
	}
	return out
}

// streamProg returns the binary a group ("<workload>/original" or
// "<workload>/placed") fetches from.
func streamProg(progs map[string]*engine.Workload, group string) *obj.Program {
	name, kind, _ := strings.Cut(group, "/")
	if kind == "placed" {
		return progs[name].Placed
	}
	return progs[name].Original
}

// preparedPrograms prepares every benchmark outside any timed phase,
// for the stream replays.
func preparedPrograms(names []string) (map[string]*engine.Workload, error) {
	out := make(map[string]*engine.Workload, len(names))
	for _, n := range names {
		w, err := experiment.Prepare(n)
		if err != nil {
			return nil, err
		}
		out[n] = &engine.Workload{Name: n, Original: w.Original, Placed: w.Placed}
	}
	return out, nil
}

// drain runs the fetch producer alone over prog's whole stream,
// segmenting it into fetch runs of block bytes as a pass would.
func drain(ctx context.Context, prog *obj.Program, block int) (uint64, time.Duration, error) {
	start := time.Now()
	src, err := sim.NewFetchSource(prog, baseConfig(), block)
	if err != nil {
		return 0, 0, err
	}
	var n uint64
	for {
		ch, err := src.NextChunk(ctx)
		if err != nil {
			return 0, 0, err
		}
		if ch == nil {
			return n, time.Since(start), nil
		}
		n += uint64(len(ch.Events))
	}
}

// forStreams runs fn over streams on the engine's worker count.
func forStreams(streams []stream, fn func(stream) error) error {
	var mu sync.Mutex
	var first error
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, s := range streams {
		wg.Add(1)
		sem <- struct{}{}
		go func(s stream) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(s); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return first
}

// simLayers derives the sim.* metrics from the passes a workload
// caused: producer time is each stream's standalone drain time times
// its passes. It returns the per-stream drain times for RunMulti
// comparisons and fails a check when a drain disagrees with the
// instruction count the results reported.
func simLayers(ctx context.Context, r *runResult, p *passes, progs map[string]*engine.Workload) (map[stream]time.Duration, error) {
	counts := p.streams()
	r.layer("sim.producer_instrs", "count", float64(p.producerInstrs()))
	r.layer("sim.model_instrs", "count", float64(p.modelInstrs))
	if len(p.block) > 0 {
		r.layer("sim.models_per_pass", "count", float64(p.models)/float64(len(p.block)))
	}
	var streams []stream
	for s := range counts {
		streams = append(streams, s)
	}
	var mu sync.Mutex
	drains := map[stream]time.Duration{}
	var drained uint64
	err := forStreams(streams, func(s stream) error {
		n, d, err := drain(ctx, streamProg(progs, s.group), s.block)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		drains[s] = d
		drained += n
		if n != p.length[s.group] {
			r.fail("sim: producer drained %d instructions of %s, results report %d", n, s.group, p.length[s.group])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var producer, once time.Duration
	for s, d := range drains {
		producer += time.Duration(counts[s]) * d
		once += d
	}
	r.layer("sim.producer_s", "s", producer.Seconds())
	if once > 0 {
		r.layer("sim.producer_minstrs_per_s", "Minstr/s", float64(drained)/once.Seconds()/1e6)
	}
	return drains, nil
}

// engineCounts snapshots engine counters, summed over engines.
type engineCounts struct{ hits, misses, groups, coalesced uint64 }

func countsOf(engs ...*engine.Engine) engineCounts {
	var c engineCounts
	for _, e := range engs {
		c.hits += e.Hits()
		c.misses += e.Misses()
		c.groups += e.Groups()
		c.coalesced += e.CoalescedCells()
	}
	return c
}

// report records the engine.* metrics: the counters' change since
// before.
func (c engineCounts) report(r *runResult, before engineCounts) {
	hits, misses := c.hits-before.hits, c.misses-before.misses
	groups := c.groups - before.groups
	r.layer("engine.hits", "count", float64(hits))
	r.layer("engine.misses", "count", float64(misses))
	if hits+misses > 0 {
		r.layer("engine.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	r.layer("engine.groups", "count", float64(groups))
	if groups > 0 {
		r.layer("engine.cells_per_group", "count", float64(c.coalesced-before.coalesced)/float64(groups))
	}
}

// checkStoreLayers reports the check.* and store.* metrics from the
// unparented verify, load and save spans of a phase.
func checkStoreLayers(r *runResult, tr *tracer, flush time.Duration) {
	ver := tr.named(spanVerify)
	var vt time.Duration
	for _, s := range ver {
		vt += s.dur()
	}
	r.layer("check.verify_calls", "count", float64(len(ver)))
	r.layer("check.verify_s", "s", vt.Seconds())
	if len(ver) > 0 {
		r.layer("check.verify_us_per_call", "us", us(vt)/float64(len(ver)))
	}
	loads := tr.named(spanLoad)
	saves := tr.named(spanSave)
	r.layer("store.loads", "count", float64(len(loads)))
	r.layer("store.saves", "count", float64(len(saves)))
	r.layer("store.flush_s", "s", flush.Seconds())
	if len(loads) > 0 {
		hit := 0
		lat := make([]float64, len(loads))
		for i, s := range loads {
			if s.ok {
				hit++
			}
			lat[i] = us(s.dur())
		}
		r.layer("store.load_hit_ratio", "ratio", float64(hit)/float64(len(loads)))
		r.layer("store.load_us_p50", "us", median(lat))
	}
	if len(saves) > 0 {
		lat := make([]float64, len(saves))
		for i, s := range saves {
			lat[i] = us(s.dur())
		}
		r.layer("store.save_us_p50", "us", median(lat))
	}
}

// prepareLayer sums the experiment.Prepare spans of one set-up.
func prepareLayer(r *runResult, tr *tracer) {
	var d time.Duration
	for _, s := range tr.named(spanPrepare) {
		d += s.dur()
	}
	r.layer("experiment.prepare_s", "s", d.Seconds())
}

// codecBatch is one batch of a workload with the engine results that
// answer it, for the api codec replay.
type codecBatch struct {
	reqs    []api.RunRequest
	results []*engine.Result
}

// apiLayers replays the api codec on a workload's own batches: request
// decode (JSON + validation + ToSpecs) and response encode (ResultOf +
// EncodeBatchResponse), per cell.
func apiLayers(r *runResult, batches []codecBatch) error {
	var dec, enc time.Duration
	var cells, size int
	var buf bytes.Buffer
	for _, b := range batches {
		body, err := json.Marshal(api.BatchRequest{APIVersion: api.Version, Requests: b.reqs})
		if err != nil {
			return err
		}
		start := time.Now()
		var breq api.BatchRequest
		if err := json.Unmarshal(body, &breq); err != nil {
			return err
		}
		if _, err := api.ToSpecs(breq.Requests); err != nil {
			return err
		}
		dec += time.Since(start)

		buf.Reset()
		start = time.Now()
		resp := &api.BatchResponse{APIVersion: api.Version, JobID: api.BatchKey(b.reqs),
			Status: api.StatusDone, Results: make([]api.RunResult, len(b.results))}
		for i, res := range b.results {
			resp.Results[i] = api.ResultOf(res)
		}
		if err := api.EncodeBatchResponse(&buf, resp); err != nil {
			return err
		}
		enc += time.Since(start)
		cells += len(b.reqs)
		size += buf.Len()
	}
	if cells > 0 {
		r.layer("api.decode_us_per_cell", "us", us(dec)/float64(cells))
		r.layer("api.encode_us_per_cell", "us", us(enc)/float64(cells))
		r.layer("api.response_bytes_per_cell", "bytes", float64(size)/float64(cells))
	}
	return nil
}

// memMark is a runtime.MemStats reading.
type memMark struct {
	alloc uint64
	gc    uint32
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC}
}

// goLayers reports allocation per thousand cells and GC cycles since m.
func goLayers(r *runResult, m memMark, cells int) {
	now := markMem()
	if cells > 0 {
		r.layer("go.alloc_mb_per_kcell", "MB", float64(now.alloc-m.alloc)/(1<<20)/(float64(cells)/1000))
	}
	r.layer("go.gc_cycles", "count", float64(now.gc-m.gc))
}

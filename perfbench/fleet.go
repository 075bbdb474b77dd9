package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/check"
	"wayplace/internal/engine"
	"wayplace/internal/fleet"
	"wayplace/internal/serve"
)

const (
	fleetBackends = 2 // one engine worker each
	asyncEvery    = 4 // every asyncEvery-th batch goes async
)

// rig is an in-process fleet: backends behind a coordinator, each on
// its own 127.0.0.1 socket.
type rig struct {
	backends []*daemon
	coord    *fleet.Coordinator
	hs       *http.Server
	done     chan struct{}
	url      string
}

// startRig boots fresh backends (new stores and journals) and the
// coordinator, and probes the fleet's health through it.
func startRig(ctx context.Context, cfg *config, tr *tracer, setup int) (*rig, error) {
	f := &rig{}
	var urls []string
	for b := 0; b < fleetBackends; b++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("fleet-%d-b%d", setup, b))
		d, err := startDaemon(ctx, cfg, dir, 1, tr, spanBackend, linkFirstKey)
		if err != nil {
			f.close(ctx)
			return nil, err
		}
		f.backends = append(f.backends, d)
		urls = append(urls, d.url)
	}
	var err error
	if f.coord, err = fleet.New(fleet.Options{Backends: urls}); err != nil {
		f.close(ctx)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close(ctx)
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: tr.handler(spanCoord, linkFirstKey, f.coord.Handler())}
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		f.hs.Serve(ln)
	}()
	if _, err := serve.NewClient(f.url).Health(ctx); err != nil {
		f.close(ctx)
		return nil, err
	}
	return f, nil
}

// close stops the coordinator, then the backends.
func (f *rig) close(ctx context.Context) error {
	var err error
	if f.hs != nil {
		err = f.hs.Shutdown(ctx)
		<-f.done
	}
	if f.coord != nil {
		if cerr := f.coord.Shutdown(ctx); err == nil {
			err = cerr
		}
	}
	for _, d := range f.backends {
		if derr := d.close(ctx); err == nil {
			err = derr
		}
	}
	return err
}

func (f *rig) engines() []*engine.Engine {
	var out []*engine.Engine
	for _, d := range f.backends {
		out = append(out, d.eng)
	}
	return out
}

// fleetBatch is one completed fleet_cold batch.
type fleetBatch struct {
	idx        int
	start, end time.Duration // from the start of the timed phase
	reqs       []api.RunRequest
	resp       *api.BatchResponse
	lat        time.Duration
	async      bool
}

// runFleet sends seeded sweep slices through a coordinator over two
// cold backends: every cell is simulated during the timed phase and
// written to the backend's store.
func runFleet(ctx context.Context, cfg *config, tr *tracer) (*runResult, error) {
	r := &runResult{}
	slices := sweepSlices(cfg.seed, cfg.names)
	n := setups
	if tr != nil {
		n = 1
	}
	var f *rig
	for i := 0; i < n; i++ {
		if f != nil {
			if err := f.close(ctx); err != nil {
				return nil, err
			}
		}
		tr.reset()
		start := time.Now()
		var err error
		if f, err = startRig(ctx, cfg, tr, i); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	defer f.close(ctx)
	if tr != nil {
		prepareLayer(r, tr)
	}
	tr.reset()
	before := countsOf(f.engines()...)
	mark := markMem()

	// Clients take slices in order and stop at the first round boundary
	// after the run length, so every run measures whole rounds: the same
	// benchmark mix whatever the seed.
	deadline := time.Now().Add(cfg.seconds)
	var mu sync.Mutex
	taken, stopped := 0, false
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case stopped:
		case taken >= len(slices):
			stopped = true
			r.fail("fleet_cold: ran out of distinct sweep slices before the run ended")
		case taken%len(cfg.names) == 0 && taken > 0 && time.Now().After(deadline):
			stopped = true
		default:
			taken++
			return taken - 1, true
		}
		return 0, false
	}
	var batches []fleetBatch
	var roundTrips, polls int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc, ct := newHTTPClient()
			defer hc.CloseIdleConnections()
			cl := &serve.Client{BaseURL: f.url, HTTP: hc, MaxRetries: 4}
			var mine []fleetBatch
			var myPolls int64
			for {
				i, ok := take()
				if !ok {
					break
				}
				b := fleetBatch{idx: i, reqs: slices[i], async: i%asyncEvery == asyncEvery-1}
				t0 := time.Now()
				var err error
				if b.async {
					var p int64
					b.resp, p, err = runAsync(ctx, hc, f.url, b.reqs)
					myPolls += p
				} else {
					b.resp, err = cl.Run(ctx, b.reqs)
				}
				b.lat = time.Since(t0)
				b.start, b.end = t0.Sub(start), t0.Sub(start)+b.lat
				if err == nil {
					err = checkResponse(b.resp, b.reqs)
				}
				if err != nil {
					mu.Lock()
					r.fail("fleet_cold: batch %d: %v", i, err)
					mu.Unlock()
					continue
				}
				tr.add(span{Name: spanClient, Req: "fleet-" + strconv.Itoa(i), Start: tr.since(t0),
					End: tr.since(t0.Add(b.lat)), Cells: len(b.reqs), link: b.reqs[0].Key()})
				mine = append(mine, b)
			}
			mu.Lock()
			batches = append(batches, mine...)
			roundTrips += ct.n.Load()
			polls += myPolls
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	// cells_per_s is the median over rounds of a round's cells divided
	// by the time from its first batch's start to its last one's end.
	cells := 0
	type round struct {
		first, last time.Duration
		cells       int
	}
	rounds := make([]round, taken/len(cfg.names))
	for i := range rounds {
		rounds[i].first = wall
	}
	for _, b := range batches {
		cells += len(b.reqs)
		r.batchMS = append(r.batchMS, ms(b.lat))
		rd := &rounds[b.idx/len(cfg.names)]
		rd.first, rd.last = min(rd.first, b.start), max(rd.last, b.end)
		rd.cells += len(b.reqs)
	}
	var perRound []float64
	for _, rd := range rounds {
		if rd.cells > 0 {
			perRound = append(perRound, float64(rd.cells)/(rd.last-rd.first).Seconds())
		}
	}
	r.attempted += len(batches) + r.failed
	r.cellsPerS = median(perRound)
	r.detail = map[string]any{"batches": len(batches), "cells": cells, "wall_s": wall.Seconds(),
		"cells_per_s_rounds": perRound}

	// Once per fleet: every distinct cell simulated exactly once.
	sims := countsOf(f.engines()...).misses - before.misses
	perCell := float64(sims) / float64(max(cells, 1))
	r.attempted++
	if perCell != 1 {
		r.fail("fleet_cold: %d simulations for %d distinct cells", sims, cells)
	}

	// Results must equal a direct engine run of the same cells, on a
	// fresh engine given them as one batch.
	var all []api.RunRequest
	for _, b := range batches {
		all = append(all, b.reqs...)
	}
	specs, err := api.ToSpecs(all)
	if err != nil {
		return nil, err
	}
	ref := engine.New(provider(nil), engine.WithBaseConfig(baseConfig()),
		engine.WithWorkers(workers), engine.WithVerify(check.VerifyCell))
	res, err := ref.Run(ctx, specs)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	var codec []codecBatch
	for _, b := range batches {
		mine := res[:len(b.reqs)]
		res = res[len(b.reqs):]
		r.attempted++
		for i, x := range mine {
			if !reflect.DeepEqual(*x.Stats, *b.resp.Results[i].Stats) {
				r.fail("fleet_cold: %s differs from the direct engine run", x.Spec)
				break
			}
		}
		codec = append(codec, codecBatch{reqs: b.reqs, results: mine})
	}

	if tr != nil {
		r.layer("fleet.simulations_per_cell", "ratio", perCell)
		if err := fleetLayers(ctx, r, cfg, f, tr, batches, codec, before, mark, cells, roundTrips-polls); err != nil {
			return nil, err
		}
	}
	if err := servedFig4(ctx, r, cfg, f.url, "fleet_cold"); err != nil {
		return nil, err
	}
	return r, nil
}

// fleetLayers derives fleet_cold's per-layer metrics. Spans join their
// parents by the first cell key of their request body: within a run no
// cell appears in two batches, so a key names its batch.
func fleetLayers(ctx context.Context, r *runResult, cfg *config, f *rig, tr *tracer, batches []fleetBatch, codec []codecBatch, before engineCounts, mark memMark, cells int, requests int64) error {
	goLayers(r, mark, cells)
	after := countsOf(f.engines()...)
	after.report(r, before)
	var flush time.Duration
	for _, d := range f.backends {
		start := time.Now()
		d.st.Flush()
		flush += time.Since(start)
	}
	checkStoreLayers(r, tr, flush)

	var misses []float64
	var total float64
	for _, d := range f.backends {
		m := float64(d.eng.Misses())
		misses = append(misses, m)
		total += m
	}
	skew := 0.0
	for _, m := range misses {
		skew = max(skew, m/(total/float64(len(misses))))
	}
	r.layer("fleet.backend_cell_skew", "ratio", skew)

	p := newPasses()
	batchOf := map[string]int{}
	for bi, b := range batches {
		for i, res := range b.resp.Results {
			batchOf[b.reqs[i].Key()] = bi
			if !res.CacheHit && res.GroupID != "" {
				owner := f.coord.Ring().Owner(res.Key)
				p.add(fmt.Sprintf("%d/%d", b.idx, owner), res.GroupID, res.Request.ICache.LineBytes, res.Stats.Instrs)
			}
		}
	}
	progs, err := preparedPrograms(cfg.names)
	if err != nil {
		return err
	}
	if _, err := simLayers(ctx, r, p, progs); err != nil {
		return err
	}

	clientSpans := map[int]span{}
	for _, s := range tr.named(spanClient) {
		clientSpans[batchOf[s.link]] = s
	}
	parents := map[int64]int64{}
	coordSpans := map[int]span{}
	for _, s := range tr.named(spanCoord) {
		bi, ok := batchOf[s.link]
		if !ok {
			continue
		}
		coordSpans[bi] = s
		parents[s.ID] = clientSpans[bi].ID
	}
	children := map[int][]interval{}
	backendSpans := tr.named(spanBackend)
	var backendMS []float64
	for _, s := range backendSpans {
		bi, ok := batchOf[s.link]
		if !ok {
			continue
		}
		parents[s.ID] = coordSpans[bi].ID
		if !batches[bi].async {
			children[bi] = append(children[bi], s.interval(tr.t0))
			backendMS = append(backendMS, ms(s.dur()))
		}
	}
	tr.setParents(parents)
	var clientMS, selfMS, coordMS, scatterMS []float64
	for bi, c := range clientSpans {
		clientMS = append(clientMS, ms(c.dur()))
		co, ok := coordSpans[bi]
		if !ok || batches[bi].async {
			continue
		}
		selfMS = append(selfMS, ms(selfTime(c.interval(tr.t0), []interval{co.interval(tr.t0)})))
		coordMS = append(coordMS, ms(co.dur()))
		scatterMS = append(scatterMS, ms(selfTime(co.interval(tr.t0), children[bi])))
	}
	r.layer("client.request_ms_p50", "ms", median(clientMS))
	r.layer("client.self_ms_p50", "ms", median(selfMS))
	r.layer("client.retries", "count", float64(requests-int64(len(batches))))
	r.layer("fleet.coord_ms_p50", "ms", median(coordMS))
	r.layer("fleet.backend_ms_p50", "ms", median(backendMS))
	r.layer("fleet.scatter_self_ms_p50", "ms", median(scatterMS))
	if len(coordSpans) > 0 {
		r.layer("fleet.subbatches_per_batch", "count", float64(len(backendSpans))/float64(len(coordSpans)))
	}
	r.detail["sync_batches_joined"] = len(coordMS)
	return apiLayers(r, codec)
}

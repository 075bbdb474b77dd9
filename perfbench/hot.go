package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
)

// hotSampleEvery: every this-many-th batch of a client is compared
// with the direct engine run of set-up.
const hotSampleEvery = 16

// replayMax bounds how many served batches a traced run replays.
const replayMax = 10000

// hotWindow is the window serve_hot's throughput is counted over.
const hotWindow = time.Second

// hotBatch is one completed serve_hot batch.
type hotBatch struct {
	cells int
	lat   time.Duration
	end   time.Duration    // completion, from the start of the timed phase
	reqs  []api.RunRequest // kept in a traced run, which replays them
}

// runHot measures a store-backed wpserved whose engine was warmed with
// the whole pool during set-up: every cell is a run-cache hit, so the
// time goes to client, api, serve, the engine memo and verify-on-hit.
func runHot(ctx context.Context, cfg *config, tr *tracer) (*runResult, error) {
	r := &runResult{}
	pool := hotPool(cfg.names)
	specs, err := api.ToSpecs(pool)
	if err != nil {
		return nil, err
	}
	n := setups
	if tr != nil {
		n = 1
	}
	var d *daemon
	var direct map[string]*sim.RunStats
	for i := 0; i < n; i++ {
		if d != nil {
			if err := d.close(ctx); err != nil {
				return nil, err
			}
		}
		tr.reset()
		start := time.Now()
		d, direct, err = startHot(ctx, cfg, tr, specs, i)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	defer d.close(ctx)
	if tr != nil {
		prepareLayer(r, tr)
	}
	tr.reset()
	before := countsOf(d.eng)
	mark := markMem()

	var mu sync.Mutex
	var sampled atomic.Int64
	var batches []hotBatch
	var roundTrips int64
	deadline := time.Now().Add(cfg.seconds)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc, ct := newHTTPClient()
			defer hc.CloseIdleConnections()
			cl := &serve.Client{BaseURL: d.url, HTTP: hc, MaxRetries: 4}
			gen := newHotGen(cfg.seed, c, pool)
			var mine []hotBatch
			for i := 0; time.Now().Before(deadline); i++ {
				reqs := gen.next()
				var conn string
				rctx := ctx
				if tr != nil {
					rctx = withConnAddr(ctx, &conn)
				}
				t0 := time.Now()
				resp, err := cl.Run(rctx, reqs)
				lat := time.Since(t0)
				if err == nil {
					err = checkResponse(resp, reqs)
				}
				if err == nil && i%hotSampleEvery == 0 {
					sampled.Add(1)
					err = matchDirect(resp, reqs, direct)
				}
				if err != nil {
					mu.Lock()
					r.fail("serve_hot: client %d batch %d: %v", c, i, err)
					mu.Unlock()
					continue
				}
				tr.add(span{Name: spanClient, Req: fmt.Sprintf("hot-c%d-%d", c, i),
					Start: tr.since(t0), End: tr.since(t0.Add(lat)), Cells: len(reqs), link: conn})
				b := hotBatch{cells: len(reqs), lat: lat, end: time.Since(start)}
				if tr != nil {
					b.reqs = reqs
				}
				mine = append(mine, b)
			}
			mu.Lock()
			batches = append(batches, mine...)
			roundTrips += ct.n.Load()
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	// cells_per_s is the median over one-second windows of the cells
	// whose batch completed in the window.
	cells := 0
	perWindow := make([]float64, int(wall/hotWindow))
	for _, b := range batches {
		cells += b.cells
		r.batchMS = append(r.batchMS, ms(b.lat))
		if w := int(b.end / hotWindow); w < len(perWindow) {
			perWindow[w] += float64(b.cells) / hotWindow.Seconds()
		}
	}
	r.attempted += len(batches) + r.failed
	r.cellsPerS = median(perWindow)
	r.detail = map[string]any{"batches": len(batches), "cells": cells, "wall_s": wall.Seconds(),
		"cells_per_s_windows": perWindow}

	r.detail["sampled_batches"] = sampled.Load()

	// The workload is only what it claims while every cell is a hit.
	r.attempted++
	if misses := countsOf(d.eng).misses - before.misses; misses != 0 {
		r.fail("serve_hot: %d cells were simulated during the timed phase", misses)
	}

	if tr != nil {
		if err := hotLayers(ctx, r, d, tr, batches, before, mark, cells, roundTrips); err != nil {
			return nil, err
		}
	}
	// The figure-4 model values, computed from the served results.
	if err := servedFig4(ctx, r, cfg, d.url, "serve_hot"); err != nil {
		return nil, err
	}
	return r, nil
}

// matchDirect reports whether a served answer deep-equals the direct
// engine run of the same cells.
func matchDirect(resp *api.BatchResponse, reqs []api.RunRequest, direct map[string]*sim.RunStats) error {
	for i, res := range resp.Results {
		want := direct[res.Key]
		if want == nil || !reflect.DeepEqual(*res.Stats, *want) || !reflect.DeepEqual(res.Request, reqs[i]) {
			return fmt.Errorf("response for %s differs from the direct engine run", res.Key)
		}
	}
	return nil
}

// startHot boots the serve_hot daemon in a fresh directory and warms
// its engine with the whole pool. The warm-up results are the direct
// engine run served responses are checked against.
func startHot(ctx context.Context, cfg *config, tr *tracer, specs []engine.RunSpec, i int) (*daemon, map[string]*sim.RunStats, error) {
	d, err := startDaemon(ctx, cfg, filepath.Join(cfg.work, fmt.Sprintf("hot-%d", i)), workers, tr, spanServe, linkConn)
	if err != nil {
		return nil, nil, err
	}
	res, err := d.eng.Run(ctx, specs)
	if err != nil {
		d.close(ctx)
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	d.st.Flush()
	direct := make(map[string]*sim.RunStats, len(res))
	for _, x := range res {
		direct[x.Spec.Key()] = x.Stats
	}
	return d, direct, nil
}

// servedFig4 renders figure 4 through a daemon (or coordinator) with
// the suite's aggregation code, so the model values a served user gets
// are checked like the grid's: CSV byte-identical to results/fig4.csv
// and the averages exact.
func servedFig4(ctx context.Context, r *runResult, cfg *config, url, where string) error {
	suite, err := experiment.NewSuiteOf(cfg.names)
	if err != nil {
		return err
	}
	suite.SetRunner(serve.NewRemoteRunner(serve.NewClient(url)))
	fig4, err := suite.Figure4(ctx)
	if err != nil {
		r.attempted++
		r.fail("%s: figure 4: %v", where, err)
		return nil
	}
	r.model = model{fig4.Average.WayPlace.Energy, fig4.Average.WayMem.Energy, fig4.Average.WayPlace.ED}
	checkModel(r, where)
	want, err := os.ReadFile(filepath.Join(cfg.root, "results", "fig4.csv"))
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := experiment.CSVFig4(&got, fig4); err != nil {
		return err
	}
	r.attempted++
	if !bytes.Equal(got.Bytes(), want) {
		r.fail("%s: served fig4.csv differs from results/fig4.csv", where)
	}
	return nil
}

// hotLayers derives serve_hot's per-layer metrics.
func hotLayers(ctx context.Context, r *runResult, d *daemon, tr *tracer, batches []hotBatch, before engineCounts, mark memMark, cells int, roundTrips int64) error {
	goLayers(r, mark, cells)
	countsOf(d.eng).report(r, before)
	flushStart := time.Now()
	d.st.Flush()
	checkStoreLayers(r, tr, time.Since(flushStart))

	// Handler spans join their client span by connection: each client
	// holds one connection and has one request outstanding at a time.
	clientsByConn := map[string][]span{}
	for _, s := range tr.named(spanClient) {
		clientsByConn[s.link] = append(clientsByConn[s.link], s)
	}
	for _, l := range clientsByConn {
		sort.Slice(l, func(i, j int) bool { return l[i].Start < l[j].Start })
	}
	handlers := tr.named(spanServe)
	parents := map[int64]int64{}
	var selfMS, clientMS []float64
	for _, h := range handlers {
		l := clientsByConn[h.link]
		i := sort.Search(len(l), func(i int) bool { return l[i].Start > h.Start }) - 1
		if i < 0 || l[i].End < h.End {
			continue
		}
		c := l[i]
		parents[h.ID] = c.ID
		selfMS = append(selfMS, ms(selfTime(c.interval(tr.t0), []interval{h.interval(tr.t0)})))
	}
	tr.setParents(parents)
	for _, l := range clientsByConn {
		clientMS = append(clientMS, durationsMS(l)...)
	}
	handlerMS := durationsMS(handlers)
	r.layer("client.request_ms_p50", "ms", median(clientMS))
	r.layer("client.self_ms_p50", "ms", median(selfMS))
	r.layer("client.retries", "count", float64(roundTrips-int64(len(batches))))
	r.layer("serve.handler_ms_p50", "ms", median(handlerMS))
	r.layer("serve.handler_ms_tail", "ms", tailOf(handlerMS).Value)
	aw := d.reg.Histogram(serve.MetricAdmitWait)
	if aw.Count() > 0 {
		r.layer("serve.admit_wait_ms_mean", "ms", float64(aw.Sum())/float64(aw.Count())/1e6)
	}
	r.layer("serve.rejected", "count", float64(d.reg.Counter(serve.MetricRejected).Value()))
	r.detail["joined_handler_spans"] = len(selfMS)
	r.detail["serve_handler_tail"] = tailOf(handlerMS)

	// Replay the batch sequence (evenly thinned to at most replayMax
	// batches) on the engine directly: the engine's share of a served
	// batch, and the results for the codec replay.
	var engMS []float64
	var codec []codecBatch
	step := (len(batches) + replayMax - 1) / replayMax
	for i := 0; i < len(batches); i += step {
		b := batches[i]
		specs, err := api.ToSpecs(b.reqs)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := d.eng.Run(ctx, specs)
		engMS = append(engMS, ms(time.Since(start)))
		if err != nil {
			return fmt.Errorf("engine replay: %w", err)
		}
		codec = append(codec, codecBatch{reqs: b.reqs, results: res})
	}
	r.layer("engine.batch_ms_p50", "ms", median(engMS))
	r.layer("serve.overhead_ms_p50", "ms", median(handlerMS)-median(engMS))
	return apiLayers(r, codec)
}

package main

import (
	"math/rand"

	"wayplace/internal/api"
	"wayplace/internal/experiment"
	"wayplace/internal/load"
)

// Every workload input is generated here from the --seed argument; the
// program under test only ever sees the generated batches.

// subSeed derives an independent stream seed for one consumer (a
// client, a shuffle) of the run seed.
func subSeed(seed int64, stream int64) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// hotPool is serve_hot's cell pool: every benchmark at the XScale
// geometry under baseline, way-memoization and way-placement at the
// figure-5 WP sizes, in load.Pool rank order.
func hotPool(names []string) []api.RunRequest {
	wp := make([]uint32, len(experiment.Fig5Sizes))
	for i, kb := range experiment.Fig5Sizes {
		wp[i] = uint32(kb) << 10
	}
	return load.Pool(names, api.GeometryOf(experiment.XScaleICache()), wp)
}

const (
	hotMaxBatch = 8   // serve_hot batch sizes are uniform in 1..hotMaxBatch
	hotZipfS    = 1.2 // zipf exponent over pool rank
)

// hotGen draws one client's serve_hot batches: sizes uniform in
// 1..hotMaxBatch, cells zipfian over the pool's rank order.
type hotGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	pool []api.RunRequest
}

func newHotGen(seed int64, client int, pool []api.RunRequest) *hotGen {
	rng := rand.New(rand.NewSource(subSeed(seed, int64(client)+1)))
	return &hotGen{rng: rng, zipf: rand.NewZipf(rng, hotZipfS, 1, uint64(len(pool)-1)), pool: pool}
}

func (g *hotGen) next() []api.RunRequest {
	n := 1 + g.rng.Intn(hotMaxBatch)
	reqs := make([]api.RunRequest, n)
	for i := range reqs {
		reqs[i] = g.pool[g.zipf.Uint64()]
	}
	return reqs
}

// sweepWP are the way-placement sizes of a fleet_cold sweep slice:
// figure 6's two areas plus the rest of figure 5's sweep.
var sweepWP = []uint32{16 << 10, 8 << 10, 4 << 10, 2 << 10, 1 << 10}

// sweepStyles, sweepPolicies and sweepLines are the array styles (the
// RAM-tag extension's axis), replacement policies (the replacement
// ablation's) and line sizes a slice may be evaluated under. Together
// with figure 6's sizes they give each benchmark 24 slices, so a run
// has whole rounds to spare even on a much faster simulator.
var (
	sweepStyles   = []string{"", api.StyleRAMTag}
	sweepPolicies = []string{"", "lru"}
	sweepLines    = []int{32, 64}
)

// sweepSlices returns every fleet_cold batch of a run in its seeded
// order. A slice is one benchmark at one figure-6 cache size, array
// style, replacement policy and line size, across that size's
// associativities × baseline, way-memoization and every sweepWP size.
// No cell appears in two slices.
//
// The order is stratified into rounds: each round visits every
// benchmark once, in a seeded order, at a seeded one of its
// (size, style, policy, line) points, so whole rounds cost the same
// whatever the seed.
func sweepSlices(seed int64, names []string) [][]api.RunRequest {
	rng := rand.New(rand.NewSource(subSeed(seed, 0)))
	sizes := experiment.Fig6Sizes
	points := len(sizes) * len(sweepStyles) * len(sweepPolicies) * len(sweepLines)
	order := make([][]int, len(names))
	for b := range names {
		order[b] = rng.Perm(points)
	}
	var out [][]api.RunRequest
	for round := 0; round < points; round++ {
		for _, b := range rng.Perm(len(names)) {
			p := order[b][round]
			kb, p := sizes[p%len(sizes)], p/len(sizes)
			style, p := sweepStyles[p%len(sweepStyles)], p/len(sweepStyles)
			policy, p := sweepPolicies[p%len(sweepPolicies)], p/len(sweepPolicies)
			line := sweepLines[p]
			var reqs []api.RunRequest
			for _, ways := range experiment.Fig6Ways {
				geom := api.CacheGeometry{SizeBytes: kb << 10, Ways: ways, LineBytes: line, Policy: policy}
				cell := api.RunRequest{Workload: names[b], ICache: geom, Style: style}
				for _, scheme := range []string{api.SchemeBaseline, api.SchemeWayMemoization} {
					cell.Scheme = scheme
					reqs = append(reqs, cell)
				}
				cell.Scheme = api.SchemeWayPlacement
				for _, wp := range sweepWP {
					cell.WPSizeBytes = wp
					reqs = append(reqs, cell)
				}
			}
			out = append(out, reqs)
		}
	}
	return out
}

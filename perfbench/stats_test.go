package main

import (
	"reflect"
	"testing"
	"time"

	"wayplace/internal/bench"
)

func TestQuantileNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, shuffled
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {1, 10},
	} {
		if got := quantile(samples, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if samples[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1,2,3 = %v, want 2", got)
	}
	if got := median(samples); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		label string
		value float64
	}{
		{1000, "p99", 990}, // 10 samples above 990
		{500, "p95", 475},  // p99 would leave 5 beyond
		{100, "p90", 90},
		{40, "p75", 30},
		{20, "p50", 10},
		{15, "max", 15},
	} {
		got := tailOf(ramp(c.n))
		if got.Label != c.label || got.Value != c.value || got.N != c.n {
			t.Errorf("n=%d: tail %+v, want %s = %v", c.n, got, c.label, c.value)
		}
		if got.Label != "max" && got.Beyond < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond %s", c.n, got.Beyond, got.Label)
		}
	}
	// Ties at the quantile value are not "beyond" it.
	flat := make([]float64, 200)
	for i := range flat {
		flat[i] = 1
	}
	flat[199] = 2
	if got := tailOf(flat); got.Label != "max" {
		t.Errorf("tail of a flat series = %+v, want max", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{at(10, 20), at(30, 50)}, 70 * time.Millisecond},
		{"overlapping count once", []interval{at(10, 40), at(30, 60)}, 50 * time.Millisecond},
		{"nested", []interval{at(10, 90), at(20, 30)}, 20 * time.Millisecond},
		{"clipped to the parent", []interval{at(-50, 10), at(95, 200)}, 85 * time.Millisecond},
		{"outside", []interval{at(150, 200)}, 100 * time.Millisecond},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSeedDeterminesBatches(t *testing.T) {
	pool := hotPool(bench.Names())
	draw := func(seed int64, client int) [][]string {
		g := newHotGen(seed, client, pool)
		var out [][]string
		for i := 0; i < 50; i++ {
			var keys []string
			for _, r := range g.next() {
				keys = append(keys, r.Key())
			}
			out = append(out, keys)
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
		t.Errorf("serve_hot: the same seed gave different batch sequences")
	}
	if reflect.DeepEqual(draw(7, 0), draw(8, 0)) {
		t.Errorf("serve_hot: different seeds gave the same batch sequence")
	}
	if reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
		t.Errorf("serve_hot: both clients drew the same batch sequence")
	}

	a, b, c := sweepSlices(7, bench.Names()), sweepSlices(7, bench.Names()), sweepSlices(8, bench.Names())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fleet_cold: the same seed gave different slice orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("fleet_cold: different seeds gave the same slice order")
	}
	seen := map[string]bool{}
	for _, s := range a {
		for _, r := range s {
			if seen[r.Key()] {
				t.Fatalf("fleet_cold: cell %s appears in two slices", r.Key())
			}
			seen[r.Key()] = true
		}
	}
}

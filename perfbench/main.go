// Command perfbench is the repository benchmark. It runs one named
// workload against the real code — the 23 benchmarks, the
// experiment.Prepare pipeline and check.VerifyCell on every cell —
// for a given time, checks the outputs, and prints every metric by
// name and unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// workload runs once untraced and once traced, and the metrics are
// the per-layer ones derived from spans recorded around the calls into
// each module. README.md in this directory lists both tables.
//
// Usage (from the repository root, via run.py, which builds it):
//
//	perfbench -workload grid|serve_hot|fleet_cold -seed N -seconds S -trace 0|1
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"wayplace/internal/bench"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout (the working directory)
	work     string // scratch directory for stores and journals, removed at exit
	out      string // build/output directory for the span file
	names    []string
}

// Load shape: one process holds every daemon; 2 closed-loop clients
// and 2 engine workers in total, matching the 2-CPU host the benchmark
// was sized on.
const (
	clients = 2
	workers = 2
)

// setups is how many times each workload sets up per run; setup_s is
// their median.
const setups = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one timed phase of a workload produced.
type runResult struct {
	setup     []float64 // seconds per set-up
	cellsPerS float64
	batchMS   []float64 // client-side batch latencies (grid: whole evaluations)
	model     model     // fig-4 suite averages the workload's outputs gave
	attempted int
	failed    int
	problems  []string // failed output checks (each also counted in failed)
	layers    map[string]metric
	detail    map[string]any
}

// model is the simulated figure-4 suite average.
type model struct{ WPEnergy, WayMemEnergy, WPED float64 }

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runResult) layer(name, unit string, v float64) {
	if r.layers == nil {
		r.layers = map[string]metric{}
	}
	r.layers[name] = metric{Value: v, Unit: unit}
}

type workloadFn func(ctx context.Context, cfg *config, tr *tracer) (*runResult, error)

var workloads = map[string]workloadFn{
	"grid":       runGrid,
	"serve_hot":  runHot,
	"fleet_cold": runFleet,
}

func main() {
	name := flag.String("workload", "", "workload: grid, serve_hot or fleet_cold")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for scratch state and the span file")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload grid|serve_hot|fleet_cold, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(*out, "perfbench-work-")
	if err != nil {
		fatal(err)
	}
	code := run(fn, &config{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: root, work: work, out: *out, names: bench.Names(),
	})
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// run executes the workload and prints the record and the result. It
// returns the exit code; an error that prevents measuring prints no
// result.
func run(fn workloadFn, cfg *config) int {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if _, err := os.Stat(filepath.Join(cfg.root, "results", "fig4.csv")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	if cfg.trace {
		// A traced run measures the run length in two halves: untraced,
		// for trace_overhead_ratio, then traced.
		cfg.seconds = max(cfg.seconds/2, time.Second)
	}
	plain, err := fn(ctx, cfg, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := plain
	metrics := endToEnd(plain)
	detail := map[string]any{"untraced": describe(plain, metrics)}
	if cfg.trace {
		tr := newTracer()
		traced, err := fn(ctx, cfg, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", cfg.workload, err)
			return 1
		}
		tm := endToEnd(traced)
		detail["traced"] = describe(traced, tm)
		traced.layer("trace_overhead_ratio", "ratio", plain.cellsPerS/traced.cellsPerS)
		fillLayers(traced)
		metrics = traced.layers
		traced.attempted += plain.attempted
		traced.failed += plain.failed
		traced.problems = append(plain.problems, traced.problems...)
		res = traced
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		detail["spans"] = path
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	detail["provenance"] = provenance(cfg)
	detail["problems"] = res.problems
	printTable(metrics)
	rec, err := json.Marshal(map[string]any{"record": detail})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(rec))
	final, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(final))
	return 0
}

// endToEnd derives the end-to-end metrics of one phase.
func endToEnd(r *runResult) map[string]metric {
	tail := tailOf(r.batchMS)
	ok := 1.0
	if r.attempted > 0 {
		ok = 1 - float64(r.failed)/float64(r.attempted)
	}
	return map[string]metric{
		"setup_s":                  {median(r.setup), "s"},
		"cells_per_s":              {r.cellsPerS, "1/s"},
		"batch_p50_ms":             {median(r.batchMS), "ms"},
		"batch_tail_ms":            {tail.Value, "ms"},
		"success_ratio":            {ok, "ratio"},
		"peak_rss_mb":              {peakRSSMB(), "MB"},
		"model.wp_energy_norm":     {r.model.WPEnergy, "ratio"},
		"model.waymem_energy_norm": {r.model.WayMemEnergy, "ratio"},
		"model.wp_ed_norm":         {r.model.WPED, "ratio"},
	}
}

// describe is the human-facing record of one phase: every quantile
// with its sample count, the failure ratio and the raw counts.
func describe(r *runResult, m map[string]metric) map[string]any {
	d := map[string]any{
		"metrics":       m,
		"setup_samples": r.setup,
		"batch_p50":     p50(r.batchMS),
		"batch_tail":    tailOf(r.batchMS),
		"attempted":     r.attempted,
		"failed":        r.failed,
		"failed_ratio":  float64(r.failed) / float64(max(r.attempted, 1)),
	}
	for k, v := range r.detail {
		d[k] = v
	}
	return d
}

func printTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return -1
}

// provenance stamps the run record: what was measured, where, how.
func provenance(cfg *config) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds.Seconds(),
		"trace":          cfg.trace,
		"commit":         commit,
		"source_sha256":  sourceDigest(cfg.root),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"cpu_model":      cpuModel(),
		"clients":        clients,
		"engine_workers": workers,
	}
}

// sourceDigest hashes every Go source and module file of the checkout,
// so a record identifies the code even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

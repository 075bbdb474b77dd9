// Command wpload is the concurrent-client load harness for wpserved.
// It drives a fleet of independent HTTP clients — hundreds by default
// — against a daemon, each submitting sync and async batches drawn
// zipfian-hot from a fixed pool of canonical cells, honouring 429
// backpressure with capped Retry-After backoff and (with -churn)
// hanging up mid-request to exercise abandoned-connection paths. The
// run's latency quantiles, 429/retry/error rates and throughput land
// in a machine-readable snapshot (-snapshot, e.g. BENCH_wpload.json),
// optionally checked against p50/p99 SLOs.
//
// Usage:
//
//	wpload [-addr URL] [-clients N] [-duration d] [-async F]
//	       [-batch N] [-zipf S] [-churn F] [-retries N]
//	       [-workloads N] [-pool a,b,...] [-queue N] [-jobs N]
//	       [-snapshot file] [-metrics file] [-seed N]
//	       [-slo-p50 d] [-slo-p99 d] [-slo-cell-p99 d]
//	       [-slo-429 F] [-slo-errors F] [-smoke] [-crash]
//
// With no -addr, wpload starts an in-process wpserved over tiny
// synthetic workloads on a loopback socket — the full HTTP stack with
// none of the network or benchmark-preparation noise, which is what
// CI wants. With -addr it targets a running daemon; -pool then names
// the workloads to draw cells from (default: the daemon's standard
// benchmark set is NOT assumed — the flag is required).
//
// -smoke is the tier-1 CI gate: loopback target, 200 clients for 2
// seconds, generous SLOs that catch breakage (orphaned async jobs,
// starved sync callers, buffered encodes) without flaking on slow
// runners. Exit status 1 on any SLO violation.
//
// -crash is the durability gate: wpload re-execs itself as a
// store-backed daemon, submits async batches, SIGKILLs the daemon the
// moment the last 202 lands, restarts it on the same store and
// asserts every pre-kill job id resolves to results byte-identical to
// a direct engine run — then proves a third, cold-memory daemon
// serves the warm store without re-simulating a single cell.
//
// -tenants N is the fairness gate: one hog fleet an order of
// magnitude past its per-tenant quota and N-1 polite fleets run
// concurrently against a quota'd loopback; each polite tenant must
// keep the latency and throughput a solo baseline run measured,
// while the hog — and only the hog — absorbs over_quota 429s.
// -tenants-smoke is the tier-1 short form (3 tenants, short legs).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/experiment"
	"wayplace/internal/load"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
)

func main() {
	// Re-exec'd as a crash-choreography daemon child? Then this call
	// runs the daemon and never returns.
	load.MaybeDaemonChild()

	addr := flag.String("addr", "", "target wpserved base URL, e.g. http://127.0.0.1:8100 (empty = in-process loopback server)")
	clients := flag.Int("clients", 256, "concurrent clients")
	duration := flag.Duration("duration", 10*time.Second, "how long clients keep submitting")
	async := flag.Float64("async", 0.25, "fraction of batches submitted async (202 + poll)")
	batch := flag.Int("batch", 8, "max cells per batch (sizes are uniform 1..N)")
	zipf := flag.Float64("zipf", 1.2, "zipfian skew over pool ranks (>1; larger = hotter hot set)")
	churn := flag.Float64("churn", 0.02, "probability a client abandons a submission mid-request")
	retries := flag.Int("retries", 8, "resubmissions after 429 before a batch counts as dropped")
	workloads := flag.Int("workloads", 4, "synthetic workloads behind the loopback server")
	poolNames := flag.String("pool", "", "comma-separated workload names for the cell pool (required with -addr)")
	queue := flag.Int("queue", 64, "loopback server queue depth")
	jobs := flag.Int("jobs", 0, "loopback engine workers (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "client RNG seed")
	snapshotPath := flag.String("snapshot", "", "write the run snapshot here, e.g. BENCH_wpload.json (empty = skip)")
	metricsPath := flag.String("metrics", "", "also dump the client-side load_* registry as JSON here")
	smoke := flag.Bool("smoke", false, "CI smoke: loopback, 200 clients, 2s, SLOs asserted, exit 1 on violation")
	crash := flag.Bool("crash", false, "kill/restart durability choreography: SIGKILL a store-backed daemon mid-load, restart, assert nothing observable was lost")
	fleetN := flag.Int("fleet", 0, "fleet mode: N loopback backends behind an in-process coordinator; measures 1-vs-N cold-pool scaling, asserts once-per-fleet, then load-tests the fleet")
	fleetSmoke := flag.Bool("fleet-smoke", false, "CI fleet smoke: 3 backends, once-per-fleet invariant plus a 2s SLO-checked load run (no scaling measurement)")
	minSpeedup := flag.Float64("fleet-speedup", 2.5, "minimum fleet/single cells-per-second ratio -fleet must reach")
	tenantsN := flag.Int("tenants", 0, "fairness mode: 1 hog + N-1 polite tenant fleets against a quota'd loopback; asserts polite p99/throughput within a band of a solo baseline, then runs the standard load leg")
	tenantsSmoke := flag.Bool("tenants-smoke", false, "CI fairness smoke: 3 tenants with short legs plus a 2s SLO-checked load run")

	sloP50 := flag.Duration("slo-p50", 0, "max HTTP p50 (0 = unchecked)")
	sloP99 := flag.Duration("slo-p99", 0, "max HTTP p99 (0 = unchecked)")
	sloCellP99 := flag.Duration("slo-cell-p99", 0, "max per-cell p99 (0 = unchecked)")
	slo429 := flag.Float64("slo-429", -1, "max 429s per HTTP request (negative = unchecked)")
	sloErrors := flag.Float64("slo-errors", -1, "max batch error rate (negative = unchecked)")
	flag.Parse()

	if *crash {
		if err := load.RunCrash(context.Background(), load.CrashOptions{Log: os.Stderr}); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "wpload: crash choreography ok")
		return
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *smoke || *fleetSmoke || *tenantsSmoke {
		// Presets only where the user did not choose: -smoke -clients 500
		// smokes with 500 clients.
		if !set["clients"] {
			*clients = 200
		}
		if !set["duration"] {
			*duration = 2 * time.Second
		}
		if !set["slo-p50"] {
			*sloP50 = 250 * time.Millisecond
			if *fleetSmoke {
				// The coordinator hop re-encodes every batch both ways,
				// which on a starved CI core lands the median one
				// latency bucket higher than a direct backend's.
				*sloP50 = 500 * time.Millisecond
			}
		}
		if !set["slo-p99"] {
			*sloP99 = 2 * time.Second
		}
		if !set["slo-cell-p99"] {
			*sloCellP99 = time.Second
		}
		if !set["slo-429"] {
			// Backpressure is expected under a 200-client burst; what the
			// gate rejects is every request bouncing.
			*slo429 = 0.95
		}
		if !set["slo-errors"] {
			*sloErrors = 0.01
		}
	}

	if *tenantsN > 0 || *tenantsSmoke {
		n := *tenantsN
		if n == 0 {
			n = 3 // -tenants-smoke default
		}
		benchDuration := 3 * time.Second
		if *tenantsSmoke && *tenantsN == 0 {
			benchDuration = 1200 * time.Millisecond
		}
		code := runTenants(tenantsRun{
			tenants:       n,
			benchDuration: benchDuration,
			workloads:     *workloads,
			clients:       *clients,
			duration:      *duration,
			async:         *async,
			batch:         *batch,
			zipf:          *zipf,
			churn:         *churn,
			retries:       *retries,
			seed:          *seed,
			snapshotPath:  *snapshotPath,
			metricsPath:   *metricsPath,
			slo: load.SLO{
				HTTPP50Max:   *sloP50,
				HTTPP99Max:   *sloP99,
				CellP99Max:   *sloCellP99,
				Max429Rate:   *slo429,
				MaxErrorRate: *sloErrors,
			},
			sloChecked: *smoke || *tenantsSmoke || *sloP50 > 0 || *sloP99 > 0 ||
				*sloCellP99 > 0 || *slo429 >= 0 || *sloErrors >= 0,
		})
		os.Exit(code)
	}

	if *fleetN > 0 || *fleetSmoke {
		n := *fleetN
		if n == 0 {
			n = 3 // -fleet-smoke default
		}
		if n < 2 {
			fail(fmt.Errorf("-fleet needs >= 2 backends, got %d", n))
		}
		code := runFleet(fleetRun{
			backends:     n,
			smokeOnly:    *fleetSmoke && *fleetN == 0,
			minSpeedup:   *minSpeedup,
			workloads:    *workloads,
			queue:        *queue,
			clients:      *clients,
			duration:     *duration,
			async:        *async,
			batch:        *batch,
			zipf:         *zipf,
			churn:        *churn,
			retries:      *retries,
			seed:         *seed,
			snapshotPath: *snapshotPath,
			metricsPath:  *metricsPath,
			slo: load.SLO{
				HTTPP50Max:   *sloP50,
				HTTPP99Max:   *sloP99,
				CellP99Max:   *sloCellP99,
				Max429Rate:   *slo429,
				MaxErrorRate: *sloErrors,
			},
			sloChecked: *smoke || *fleetSmoke || *sloP50 > 0 || *sloP99 > 0 ||
				*sloCellP99 > 0 || *slo429 >= 0 || *sloErrors >= 0,
		})
		os.Exit(code)
	}

	// The pool: synthetic cells on the loopback geometry, or the named
	// daemon workloads on the paper's XScale geometry.
	var pool []api.RunRequest
	target := *addr
	serverReg := obs.NewRegistry()
	if *addr == "" {
		lb, err := load.StartLoopback(load.LoopbackOptions{
			Workloads:  *workloads,
			Workers:    *jobs,
			QueueDepth: *queue,
			Registry:   serverReg,
		})
		if err != nil {
			fail(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			lb.Close(ctx)
		}()
		target = lb.URL
		names := lb.Workloads
		if *poolNames != "" {
			names = strings.Split(*poolNames, ",")
		}
		pool = load.Pool(names, load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10})
		fmt.Fprintf(os.Stderr, "wpload: loopback wpserved on %s (%d synthetic workloads, queue %d)\n",
			lb.URL, *workloads, *queue)
	} else {
		if *poolNames == "" {
			fail(fmt.Errorf("-addr needs -pool: which workloads should the cells name?"))
		}
		icache := api.GeometryOf(experiment.XScaleICache())
		pool = load.Pool(strings.Split(*poolNames, ","), icache,
			[]uint32{experiment.InitialWPSize, experiment.InitialWPSize / 2})
	}

	opt := load.Options{
		BaseURL:       target,
		Pool:          pool,
		Clients:       *clients,
		Duration:      *duration,
		AsyncFraction: *async,
		MaxBatchCells: *batch,
		ZipfS:         *zipf,
		Churn:         *churn,
		MaxRetries:    *retries,
		Seed:          *seed,
	}
	gen, err := load.New(opt)
	if err != nil {
		fail(err)
	}

	fmt.Fprintf(os.Stderr, "wpload: %d clients for %v against %s (%d-cell pool, async %.2f, churn %.2f)\n",
		*clients, *duration, targetLabel(*addr), len(pool), *async, *churn)
	report, err := gen.Run(context.Background())
	if err != nil {
		fail(err)
	}

	slo := load.SLO{
		HTTPP50Max:   *sloP50,
		HTTPP99Max:   *sloP99,
		CellP99Max:   *sloCellP99,
		Max429Rate:   *slo429,
		MaxErrorRate: *sloErrors,
	}
	checked := *smoke || *sloP50 > 0 || *sloP99 > 0 || *sloCellP99 > 0 || *slo429 >= 0 || *sloErrors >= 0

	printReport(report)

	var sloPtr *load.SLO
	if checked {
		sloPtr = &slo
	}
	snap := report.Snapshot(commandLine(), targetLabel(*addr), api.Version, opt, sloPtr)
	snap.UnixTime = time.Now().Unix()
	if *snapshotPath != "" {
		if err := snap.WriteFile(*snapshotPath); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wpload: snapshot written to %s\n", *snapshotPath)
	}
	if *metricsPath != "" {
		if err := writeMetrics(gen.Registry(), *metricsPath); err != nil {
			fail(err)
		}
	}

	if checked {
		if violations := slo.Check(report); len(violations) != 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "wpload: SLO VIOLATION: %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wpload: SLOs ok\n")
	}
}

// tenantsRun carries the resolved flag values for a
// -tenants/-tenants-smoke run.
type tenantsRun struct {
	tenants       int
	benchDuration time.Duration
	workloads     int

	clients  int
	duration time.Duration
	async    float64
	batch    int
	zipf     float64
	churn    float64
	retries  int
	seed     int64

	snapshotPath string
	metricsPath  string
	slo          load.SLO
	sloChecked   bool
}

// runTenants is the fairness harness: (1) measure quota isolation —
// a solo polite baseline, then 1 hog + N-1 polite fleets against a
// quota'd loopback, gated on each polite tenant keeping solo-like
// p99 and throughput; (2) drive the standard zipfian load at a plain
// (tenancy-off) loopback and check the SLOs, proving the tenant-aware
// admission path costs the single-tenant baseline nothing. Returns
// the process exit code.
func runTenants(cfg tenantsRun) int {
	ctx := context.Background()

	bench, err := load.TenantBench(ctx, load.TenantBenchOptions{
		Tenants:  cfg.tenants,
		Duration: cfg.benchDuration,
		Log:      os.Stderr,
	})
	if err != nil && bench == nil {
		fail(err)
	}
	failed := false
	for _, v := range bench.Violations {
		fmt.Fprintf(os.Stderr, "wpload: FAIRNESS VIOLATION: %s\n", v)
		failed = true
	}
	if !failed {
		fmt.Fprintf(os.Stderr, "wpload: fairness ok: %d polite tenants held the solo band (p99 %v) against the hog (%d over-quota rejections)\n",
			cfg.tenants-1, bench.Solo.BatchP99, bench.Hog.OverQuota)
	}

	// The standard zipfian load leg on a plain loopback — the
	// single-tenant baseline the redesign must not perturb.
	serverReg := obs.NewRegistry()
	lb, err := load.StartLoopback(load.LoopbackOptions{
		Workloads: cfg.workloads,
		Registry:  serverReg,
	})
	if err != nil {
		fail(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		lb.Close(sctx)
	}()
	pool := load.Pool(lb.Workloads, load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10})
	opt := load.Options{
		BaseURL:       lb.URL,
		Pool:          pool,
		Clients:       cfg.clients,
		Duration:      cfg.duration,
		AsyncFraction: cfg.async,
		MaxBatchCells: cfg.batch,
		ZipfS:         cfg.zipf,
		Churn:         cfg.churn,
		MaxRetries:    cfg.retries,
		Seed:          cfg.seed,
	}
	gen, err := load.New(opt)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wpload: %d clients for %v against loopback (%d-cell pool, async %.2f, churn %.2f)\n",
		cfg.clients, cfg.duration, len(pool), cfg.async, cfg.churn)
	report, err := gen.Run(ctx)
	if err != nil {
		fail(err)
	}
	printReport(report)

	var sloPtr *load.SLO
	if cfg.sloChecked {
		sloPtr = &cfg.slo
	}
	snap := report.Snapshot(commandLine(), fmt.Sprintf("tenants:%d", cfg.tenants), api.Version, opt, sloPtr)
	snap.UnixTime = time.Now().Unix()
	snap.Tenants = bench.TenantsSection()
	if cfg.snapshotPath != "" {
		if err := snap.WriteFile(cfg.snapshotPath); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wpload: snapshot written to %s\n", cfg.snapshotPath)
	}
	if cfg.metricsPath != "" {
		if err := writeMetrics(gen.Registry(), cfg.metricsPath); err != nil {
			fail(err)
		}
	}
	if cfg.sloChecked {
		if violations := cfg.slo.Check(report); len(violations) != 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "wpload: SLO VIOLATION: %s\n", v)
			}
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "wpload: SLOs ok\n")
		}
	}
	if failed {
		return 1
	}
	return 0
}

// fleetRun carries the resolved flag values for a -fleet/-fleet-smoke
// run.
type fleetRun struct {
	backends   int
	smokeOnly  bool // -fleet-smoke: skip the 1-vs-N scaling measurement
	minSpeedup float64
	workloads  int
	queue      int

	clients  int
	duration time.Duration
	async    float64
	batch    int
	zipf     float64
	churn    float64
	retries  int
	seed     int64

	snapshotPath string
	metricsPath  string
	slo          load.SLO
	sloChecked   bool
}

// runFleet is the fleet harness: (1) with -fleet, measure 1-vs-N
// backend cold-pool throughput and require -fleet-speedup; (2) prove
// the once-per-fleet invariant deterministically — the whole pool
// pushed through the coordinator twice simulates each cell exactly
// once fleet-wide; (3) drive the normal zipfian client load at the
// coordinator and check the SLOs. Returns the process exit code.
func runFleet(cfg fleetRun) int {
	ctx := context.Background()

	// Scaling measurement on dedicated cold fleets (1 backend, then
	// N), each backend pinned to one engine worker so backends are the
	// unit of parallelism.
	var fleetSection *load.FleetSnapshot
	if !cfg.smokeOnly {
		bench, err := load.FleetBench(ctx, load.FleetBenchOptions{
			Backends:   cfg.backends,
			MinSpeedup: cfg.minSpeedup,
			Log:        os.Stderr,
		})
		if err != nil {
			fail(err)
		}
		fleetSection = bench.FleetSection(cfg.minSpeedup)
		fmt.Fprintf(os.Stderr, "wpload: fleet scaling: %d backends %.2fx over 1 (%.0f vs %.0f cells/s), once-per-fleet ok (%d cells simulated for a %d-cell pool)\n",
			bench.Backends, bench.Speedup, bench.FleetCellsPerSecond, bench.SingleCellsPerSecond,
			bench.SimulatedCells, bench.PoolCells)
	}

	// The serving fleet for the load leg.
	serverReg := obs.NewRegistry()
	f, err := load.StartFleet(load.FleetOptions{
		Backends:     cfg.backends,
		Workloads:    cfg.workloads,
		BackendQueue: cfg.queue,
		Registry:     serverReg,
	})
	if err != nil {
		fail(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		f.Close(sctx)
	}()
	pool := load.Pool(load.SyntheticNames(cfg.workloads), load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10})
	fmt.Fprintf(os.Stderr, "wpload: fleet of %d backends behind coordinator %s (%d-cell pool)\n",
		cfg.backends, f.URL, len(pool))

	// Once-per-fleet, deterministically: every pool cell through the
	// coordinator twice, before any client can abandon a request
	// mid-simulation. Exactly len(pool) simulations may happen, all on
	// the first pass.
	client := serve.NewClient(f.URL)
	for pass := 0; pass < 2; pass++ {
		resp, err := client.Run(ctx, pool)
		if err != nil {
			fail(err)
		}
		if resp.Status != api.StatusDone || len(resp.Errors) != 0 {
			fail(fmt.Errorf("fleet warm-up pass %d ended %q with %d failures", pass, resp.Status, len(resp.Errors)))
		}
	}
	if sim := f.SimulatedCells(); sim != uint64(len(pool)) {
		fail(fmt.Errorf("fleet simulated %d cells for a %d-cell pool — the once-per-fleet invariant is broken", sim, len(pool)))
	}
	fmt.Fprintf(os.Stderr, "wpload: once-per-fleet ok (%d cells simulated once across %d backends)\n",
		len(pool), cfg.backends)
	if fleetSection == nil {
		fleetSection = &load.FleetSnapshot{
			Backends:       cfg.backends,
			ScalePoolCells: len(pool),
			SimulatedCells: uint64(len(pool)),
			OncePerFleet:   true,
		}
	}

	// The standard zipfian client load, aimed at the coordinator.
	opt := load.Options{
		BaseURL:       f.URL,
		Pool:          pool,
		Clients:       cfg.clients,
		Duration:      cfg.duration,
		AsyncFraction: cfg.async,
		MaxBatchCells: cfg.batch,
		ZipfS:         cfg.zipf,
		Churn:         cfg.churn,
		MaxRetries:    cfg.retries,
		Seed:          cfg.seed,
	}
	gen, err := load.New(opt)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wpload: %d clients for %v against the %d-backend fleet (async %.2f, churn %.2f)\n",
		cfg.clients, cfg.duration, cfg.backends, cfg.async, cfg.churn)
	report, err := gen.Run(ctx)
	if err != nil {
		fail(err)
	}
	printReport(report)

	var sloPtr *load.SLO
	if cfg.sloChecked {
		sloPtr = &cfg.slo
	}
	snap := report.Snapshot(commandLine(), fmt.Sprintf("fleet:%d", cfg.backends), api.Version, opt, sloPtr)
	snap.UnixTime = time.Now().Unix()
	snap.Fleet = fleetSection
	if cfg.snapshotPath != "" {
		if err := snap.WriteFile(cfg.snapshotPath); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wpload: snapshot written to %s\n", cfg.snapshotPath)
	}
	if cfg.metricsPath != "" {
		if err := writeMetrics(gen.Registry(), cfg.metricsPath); err != nil {
			fail(err)
		}
	}
	if cfg.sloChecked {
		if violations := cfg.slo.Check(report); len(violations) != 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "wpload: SLO VIOLATION: %s\n", v)
			}
			return 1
		}
		fmt.Fprintf(os.Stderr, "wpload: SLOs ok\n")
	}
	return 0
}

func printReport(r *load.Report) {
	fmt.Fprintf(os.Stderr,
		"wpload: %d batches (%d cells) in %.2fs — %.0f batches/s, %.0f cells/s\n"+
			"wpload: http %d requests, p50 %v, p99 %v; batch p50 %v, p99 %v; cell p50 %v, p99 %v\n"+
			"wpload: 429s %d (rate %.3f), retries %d, dropped %d, errors %d (rate %.4f), aborts %d, polls %d\n",
		r.Batches, r.Cells, r.Elapsed.Seconds(), r.BatchesPerSecond, r.CellsPerSecond,
		r.Requests, r.HTTPP50, r.HTTPP99, r.BatchP50, r.BatchP99, r.CellP50, r.CellP99,
		r.Status429, r.Rate429, r.Retries, r.Dropped, r.Errors, r.ErrorRate, r.Aborts, r.AsyncPolls)
}

func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func targetLabel(addr string) string {
	if addr == "" {
		return "loopback"
	}
	return addr
}

func commandLine() string {
	// os.Args[0] is a temp path under `go run`; normalise it.
	return strings.Join(append([]string{"wpload"}, os.Args[1:]...), " ")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "wpload: %v\n", err)
	os.Exit(1)
}

// Command ccmbench regenerates the paper's evaluation: Tables 1-4,
// Figures 3-4, and the §4.3 memory-hierarchy ablation, over the synthetic
// workload suite.
//
// Usage:
//
//	ccmbench [-table N] [-figure N] [-ablation] [-multiproc] [-markdown]
//	         [-memcost N] [-workers N] [-json]
//	         [-verify-passes] [-timeout D] [-repro-dir DIR]
//	         [-cache-dir DIR] [-cache-bytes N] [-remote-url URL ...]
//	         [-remote-replicas N]
//	         [-farm N] [-farm-out BENCH_farm.json]
//	         [-trace out.json] [-metrics-out BENCH_pipeline.json]
//
// The fault-isolation flags harden long benchmark runs: -verify-passes
// checkpoints compiler invariants after every pass, -timeout bounds each
// per-function compile attempt, and -repro-dir captures a replayable
// bundle for any pass fault. Benchmarks always compile in strict mode —
// silently degraded code would skew the tables — so a fault aborts the
// run (after writing its bundle) rather than polluting the measurements.
// For the same reason the differential miscompile oracle is always on:
// every measured compile is executed against its input on deterministic
// argument vectors, and a divergence — wrong code that parses, verifies,
// and runs — aborts the run with the first divergent pass named instead
// of silently skewing a table.
//
// Without selection flags it prints everything; -table N measures only
// the routine suite and -figure N only the program suite. -workers sizes
// the driver's worker pool, which bounds both the functions compiled at
// once inside one compile and the suite measurements run at once. Every
// measurement is a simulated cycle count, so the output is byte-identical
// at every worker count.
//
// Every measurement runs through one shared compilation driver
// (internal/pipeline), so compile artifacts are cached across tables and
// figures; -cache-dir extends that cache across ccmbench invocations via
// the crash-safe persistent tier (integrity-verified, LRU-bounded by
// -cache-bytes), so a repeat run skips every compile that hasn't
// changed. -json prints the driver's cumulative report (per-pass wall
// time, per-tier cache hit/miss counters and the computed hit rate) to
// stderr after the run.
//
// -metrics-out writes that same cumulative report — plus the metrics
// registry snapshot (pass-latency histograms, allocator and CCM
// counters) — to a file, the machine-readable benchmark artifact
// (conventionally BENCH_pipeline.json). -trace records a span for every
// compile, pass, cache lookup, and oracle run across the whole
// evaluation and writes Chrome trace-event JSON viewable at
// https://ui.perfetto.dev.
//
// -remote-url adds the remote HTTP cache tier (a ccmcached server) to
// the driver's read path, so a fleet of ccmbench processes shares
// compiles; a sick or absent server costs time, never bytes. Repeat the
// flag to spread the tier over a replicated fleet: keys place onto
// nodes by rendezvous hashing, reads fail over along each key's
// preference order behind per-node circuit breakers, and writes
// replicate to -remote-replicas healthy nodes. -farm N runs the table
// suite as a compile farm: N worker processes (this binary
// re-executed) partition the routine list, share the -remote-url cache
// fleet, and the parent merges their shards into tables that are
// byte-identical to a solo run — even when a fleet node dies mid-farm,
// because the survivors absorb its keys. The farm writes
// BENCH_farm.json (override with -farm-out): per-process and merged
// throughput, the remote tier's hit rate (nonzero on a warm second
// pass), and the merged failover count (nonzero after a mid-run node
// outage).
//
// SIGINT/SIGTERM cancels the run cooperatively: in-flight compiles stop
// at the next pass boundary and ccmbench exits 1 instead of running the
// remaining tables. -version prints the build identity (module version,
// VCS revision, toolchain) and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	ccm "ccmem"
	"ccmem/internal/experiments"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
)

// multiFlag collects a repeatable string flag in order.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	table := flag.Int("table", 0, "print only table N (1-4)")
	figure := flag.Int("figure", 0, "print only figure N (3 or 4)")
	ablation := flag.Bool("ablation", false, "print only the §4.3 ablation")
	multiproc := flag.Bool("multiproc", false, "print only the §2.1 multi-process comparison")
	markdown := flag.Bool("markdown", false, "emit the full evaluation as a markdown report")
	memCost := flag.Int("memcost", 2, "cycles per main-memory operation")
	workers := flag.Int("workers", 0, "compilation worker pool size, which also bounds how many suite measurements run at once (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "print the cumulative pipeline report as JSON to stderr")
	verifyPasses := flag.Bool("verify-passes", false, "verify IR and liveness invariants after every compilation pass")
	timeout := flag.Duration("timeout", 0, "per-function compile attempt timeout (0 = none)")
	reproDir := flag.String("repro-dir", "", "write crash repro bundles for pass faults to this directory")
	cacheDir := flag.String("cache-dir", "", "persistent artifact cache directory (empty = memory-only)")
	cacheBytes := flag.Int64("cache-bytes", 0, "persistent cache byte budget (0 = default)")
	var remoteURLs multiFlag
	flag.Var(&remoteURLs, "remote-url", "remote cache server base URL; repeat for a replicated fleet (empty = no remote tier)")
	remoteReplicas := flag.Int("remote-replicas", 0, "healthy fleet nodes each write-behind put lands on (0 = 2)")
	remoteToken := flag.String("remote-token", "", "bearer token for the remote cache server (empty = none)")
	farm := flag.Int("farm", 0, "run the table suite as N worker processes sharing the -remote-url cache server")
	farmOut := flag.String("farm-out", "BENCH_farm.json", "farm-mode report artifact (per-process and merged throughput, remote hit rate)")
	shardIndex := flag.Int("farm-shard-index", 0, "internal: this worker's shard index")
	shardCount := flag.Int("farm-shard-count", 0, "internal: total farm shard count (marks this process a farm worker)")
	shardOut := flag.String("farm-shard-out", "", "internal: file this worker writes its shard results to")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON span trace of every compile to this file")
	metricsOut := flag.String("metrics-out", "", "write the cumulative pipeline report (pass wall times, cache hit rates, counters) as JSON to this file, e.g. BENCH_pipeline.json")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(ccm.Version())
		return
	}

	// Ctrl-C stops the evaluation at the next pass boundary instead of
	// leaving half a table on a dead terminal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *farm > 0 {
		// Farm parent: spawn the workers, merge their shards, print the
		// table. The parent compiles nothing itself.
		if *figure != 0 || *ablation || *multiproc || *markdown {
			fatal(fmt.Errorf("-farm serves the table suite only (tables 1-4)"))
		}
		if err := runFarm(ctx, *farm, *table, farmFlags{
			remoteURLs: remoteURLs, remoteToken: *remoteToken,
			remoteReplicas: *remoteReplicas,
			workers:        *workers, memCost: *memCost,
			verifyPasses: *verifyPasses, timeout: *timeout,
			cacheDir: *cacheDir, cacheBytes: *cacheBytes, out: *farmOut,
		}); err != nil {
			fatal(err)
		}
		return
	}

	cfg := experiments.Default()
	cfg.Ctx = ctx
	cfg.MemCost = *memCost
	popts := pipeline.Options{
		Workers: *workers, CacheDir: *cacheDir, CacheBytes: *cacheBytes,
		RemoteURLs: remoteURLs, RemoteToken: *remoteToken,
		RemoteReplicas: *remoteReplicas,
	}
	if *traceOut != "" {
		popts.Tracer = obs.NewTracer()
		popts.PprofLabels = true
	}
	if *metricsOut != "" {
		popts.Metrics = obs.NewRegistry()
		popts.PprofLabels = true
	}
	cfg.Driver = pipeline.New(popts)
	if err := cfg.Driver.DiskCacheErr(); err != nil {
		fmt.Fprintf(os.Stderr, "ccmbench: warning: persistent cache disabled: %v\n", err)
	}
	if err := cfg.Driver.RemoteCacheErr(); err != nil {
		fmt.Fprintf(os.Stderr, "ccmbench: warning: remote cache disabled: %v\n", err)
	}
	cfg.VerifyPasses = *verifyPasses
	cfg.FuncTimeout = *timeout
	cfg.ReproDir = *reproDir
	cfg.Strict = true
	// Strict benchmarking distrusts wrong code as much as crashed code.
	cfg.DiffCheck = pipeline.DiffFinal
	defer func() {
		// Drain the remote write-behind queue so this process's artifacts
		// reach the fleet before the run's accounting is written.
		fctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := cfg.Driver.CloseRemote(fctx); err != nil {
			fmt.Fprintf(os.Stderr, "ccmbench: warning: remote cache flush: %v\n", err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stderr)
			enc.SetIndent("", "  ")
			if err := enc.Encode(cfg.Driver.Metrics()); err != nil {
				fatal(err)
			}
		}
		if *metricsOut != "" {
			buf, err := json.MarshalIndent(cfg.Driver.Metrics(), "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := cfg.Driver.Tracer().WriteChromeTrace(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}()

	if *shardCount > 0 {
		// Farm worker: measure this process's shard of the routine suite,
		// flush the remote tier so the fleet sees our artifacts, and ship
		// the wire-encoded results to the parent.
		if *shardOut == "" {
			fatal(fmt.Errorf("-farm-shard-out is required with -farm-shard-count"))
		}
		if fail := os.Getenv("CCMBENCH_FARM_FAIL_SHARD"); fail == strconv.Itoa(*shardIndex) {
			// Test hook: die mid-run the way a worker OOM-killed or
			// power-cycled would, before any results are written.
			fatal(fmt.Errorf("farm worker %d: injected failure (CCMBENCH_FARM_FAIL_SHARD)", *shardIndex))
		}
		cfg.ShardIndex = *shardIndex
		cfg.ShardCount = *shardCount
		res, err := experiments.RunRoutineSuite(cfg)
		if err != nil {
			fatal(err)
		}
		fctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := cfg.Driver.CloseRemote(fctx); err != nil {
			fatal(fmt.Errorf("remote cache flush: %w", err))
		}
		out := farmShard{Index: *shardIndex, Routines: res.WireRoutines(), Report: cfg.Driver.Metrics()}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*shardOut, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		return
	}

	if *markdown {
		if err := experiments.WriteReport(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		return
	}

	all := *table == 0 && *figure == 0 && !*ablation && !*multiproc

	if *multiproc || all {
		m, err := experiments.MultiProcess(cfg, nil, 1024)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatMultiProc(m))
		if *multiproc {
			return
		}
	}

	if *ablation || all {
		rows, err := experiments.Ablation43(cfg, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatAblation(rows))
		if *ablation {
			return
		}
	}

	// Tables 1-4 read only the routine suite and the figures only the
	// program suite, so a single table or figure measures only its own.
	run := experiments.RunSuite
	switch {
	case *table < 0 || *table > 4:
		fatal(fmt.Errorf("no table %d", *table))
	case *table != 0:
		run = experiments.RunRoutineSuite
	case *figure != 0 && *figure != 3 && *figure != 4:
		fatal(fmt.Errorf("no figure %d", *figure))
	case *figure != 0:
		run = experiments.RunProgramSuite
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	switch {
	case *table == 1:
		fmt.Println(res.FormatTable1())
	case *table == 2:
		fmt.Println(res.FormatTable2(512))
	case *table == 3:
		fmt.Println(res.FormatTable3(512, 1024))
	case *table == 4:
		fmt.Println(res.FormatTable4())
	case *figure == 3:
		fmt.Println(res.FormatFigure(3, 512))
	case *figure == 4:
		fmt.Println(res.FormatFigure(4, 1024))
	default:
		fmt.Println(res.FormatTable1())
		fmt.Println(res.FormatTable2(512))
		fmt.Println(res.FormatTable3(512, 1024))
		fmt.Println(res.FormatTable4())
		fmt.Println(res.FormatFigure(3, 512))
		fmt.Println(res.FormatFigure(4, 1024))
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ccmbench: interrupted")
	} else {
		fmt.Fprintln(os.Stderr, "ccmbench:", err)
	}
	os.Exit(1)
}

// farmFlags are the settings the farm parent forwards to its workers.
type farmFlags struct {
	remoteURLs     []string
	remoteToken    string
	remoteReplicas int
	workers        int
	memCost        int
	verifyPasses   bool
	timeout        time.Duration
	cacheDir       string
	cacheBytes     int64
	out            string
}

// farmShard is the file a farm worker hands back to the parent: its
// shard of the routine suite in wire form plus the worker's cumulative
// pipeline report (throughput and cache accounting).
type farmShard struct {
	Index    int                       `json:"index"`
	Routines []experiments.WireRoutine `json:"routines"`
	Report   *pipeline.Report          `json:"report"`
}

// farmWorkerSummary is one worker's line in BENCH_farm.json.
type farmWorkerSummary struct {
	Index       int                      `json:"index"`
	Routines    int                      `json:"routines"`
	Funcs       int                      `json:"funcs"`
	WallNanos   int64                    `json:"wall_ns"`
	FuncsPerSec float64                  `json:"funcs_per_sec"`
	Remote      pipeline.RemoteTierStats `json:"remote"`
}

// farmReport is the BENCH_farm.json artifact: per-process and merged
// throughput plus the remote tier's aggregate hit rate.
type farmReport struct {
	FarmWorkers  int                 `json:"farm_workers"`
	RemoteURLs   []string            `json:"remote_urls,omitempty"`
	ElapsedNanos int64               `json:"elapsed_ns"`
	Workers      []farmWorkerSummary `json:"workers"`
	Merged       struct {
		Routines      int     `json:"routines"`
		Funcs         int     `json:"funcs"`
		FuncsPerSec   float64 `json:"funcs_per_sec"` // against the farm's wall clock
		RemoteHits    int64   `json:"remote_hits"`
		RemoteMisses  int64   `json:"remote_misses"`
		RemoteHitRate float64 `json:"remote_hit_rate"`
		// RemoteFailovers counts fleet reads served by a non-primary node
		// across all workers — nonzero when a node died mid-farm and the
		// workers failed over instead of recompiling.
		RemoteFailovers int64 `json:"remote_failovers"`
	} `json:"merged"`
}

// runFarm is the parent side of `ccmbench -farm N`: re-execute this
// binary as N shard workers, wait for all of them, merge their wire
// results into one suite (byte-identical to a solo run — the cells are
// simulated cycles), print the requested table, and write the farm
// report artifact.
func runFarm(ctx context.Context, n, table int, ff farmFlags) error {
	if n > 64 {
		return fmt.Errorf("-farm must be at most 64, got %d", n)
	}
	if table == 0 {
		table = 1
	}
	if table < 1 || table > 4 {
		return fmt.Errorf("farm mode serves the table suite; no table %d", table)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("farm: locate own binary: %w", err)
	}
	tmp, err := os.MkdirTemp("", "ccmbench-farm-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	outFiles := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		outFiles[i] = filepath.Join(tmp, fmt.Sprintf("shard-%d.json", i))
		args := []string{
			"-farm-shard-index", strconv.Itoa(i),
			"-farm-shard-count", strconv.Itoa(n),
			"-farm-shard-out", outFiles[i],
			"-memcost", strconv.Itoa(ff.memCost),
		}
		for _, u := range ff.remoteURLs {
			args = append(args, "-remote-url", u)
		}
		if ff.remoteToken != "" {
			args = append(args, "-remote-token", ff.remoteToken)
		}
		if ff.remoteReplicas != 0 {
			args = append(args, "-remote-replicas", strconv.Itoa(ff.remoteReplicas))
		}
		if ff.workers != 0 {
			args = append(args, "-workers", strconv.Itoa(ff.workers))
		}
		if ff.verifyPasses {
			args = append(args, "-verify-passes")
		}
		if ff.timeout != 0 {
			args = append(args, "-timeout", ff.timeout.String())
		}
		if ff.cacheDir != "" {
			// Each worker gets a private disk tier — the shared tier is the
			// remote server; two processes must not race one directory.
			args = append(args, "-cache-dir", filepath.Join(ff.cacheDir, fmt.Sprintf("worker-%d", i)))
			if ff.cacheBytes != 0 {
				args = append(args, "-cache-bytes", strconv.FormatInt(ff.cacheBytes, 10))
			}
		}
		wg.Add(1)
		go func(i int, args []string) {
			defer wg.Done()
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stderr = os.Stderr
			errs[i] = cmd.Run()
		}(i, args)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("farm worker %d: %w", i, err)
		}
	}

	shards := make([]farmShard, n)
	wires := make([][]experiments.WireRoutine, n)
	for i := range shards {
		raw, err := os.ReadFile(outFiles[i])
		if err != nil {
			return fmt.Errorf("farm worker %d left no results: %w", i, err)
		}
		if err := json.Unmarshal(raw, &shards[i]); err != nil {
			return fmt.Errorf("farm worker %d results: %w", i, err)
		}
		wires[i] = shards[i].Routines
	}
	cfg := experiments.Default()
	cfg.MemCost = ff.memCost
	merged, err := experiments.MergeRoutineShards(cfg, wires)
	if err != nil {
		return err
	}
	switch table {
	case 1:
		fmt.Println(merged.FormatTable1())
	case 2:
		fmt.Println(merged.FormatTable2(512))
	case 3:
		fmt.Println(merged.FormatTable3(512, 1024))
	case 4:
		fmt.Println(merged.FormatTable4())
	}

	rep := farmReport{FarmWorkers: n, RemoteURLs: ff.remoteURLs, ElapsedNanos: elapsed.Nanoseconds()}
	for i, sh := range shards {
		ws := farmWorkerSummary{Index: i, Routines: len(sh.Routines)}
		if sh.Report != nil {
			ws.Funcs = sh.Report.Funcs
			ws.WallNanos = sh.Report.WallNanos
			if sh.Report.WallNanos > 0 {
				ws.FuncsPerSec = float64(sh.Report.Funcs) / (float64(sh.Report.WallNanos) / 1e9)
			}
			ws.Remote = sh.Report.Cache.Remote
		}
		rep.Workers = append(rep.Workers, ws)
		rep.Merged.Routines += ws.Routines
		rep.Merged.Funcs += ws.Funcs
		rep.Merged.RemoteHits += ws.Remote.Hits
		rep.Merged.RemoteMisses += ws.Remote.Misses
		rep.Merged.RemoteFailovers += ws.Remote.Failovers
	}
	if elapsed > 0 {
		rep.Merged.FuncsPerSec = float64(rep.Merged.Funcs) / elapsed.Seconds()
	}
	if lookups := rep.Merged.RemoteHits + rep.Merged.RemoteMisses; lookups > 0 {
		rep.Merged.RemoteHitRate = float64(rep.Merged.RemoteHits) / float64(lookups)
	}
	if ff.out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(ff.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Package pipeline is the compilation driver: it owns the pass sequence
// that turns verified input ILOC into allocated, CCM-promoted, compacted
// output (optimize → register allocation → CCM promotion → spill cleanup →
// compaction → verification) and adds the things the inline driver in
// ccm.go never had:
//
//   - per-function parallelism: functions are independent before and
//     after the interprocedural CCM partitioning step, so the front
//     (optimize + allocate) and back (cleanup + compact) stages run on a
//     bounded worker pool; only the call-graph-driven post-pass promotion
//     is a sequential whole-program barrier;
//   - a content-addressed compile cache keyed by SHA-256 over a canonical
//     encoding of (function IR, relevant Config fields), with whole-program
//     entries layered on top, so repeated compiles — the dominant cost in
//     experiment sweeps — are near-free; Options.CacheDir adds a
//     crash-safe persistent disk tier (internal/diskcache) behind the
//     memory LRU, so artifacts also survive process restarts, with
//     integrity verified on every read and corruption degrading to a
//     recompile, never to wrong output;
//   - observability: per-pass wall time, instruction deltas, per-function
//     spill statistics and cache hit/miss counters, exported as a
//     structured Report that the CLIs print as JSON;
//   - fault isolation: every per-function pass runs under recover(), so a
//     panicking pass becomes a structured *CompileError naming the pass,
//     function, and stack instead of killing the worker pool; Compile
//     accepts a context with per-function timeouts and cooperative
//     cancellation at pass boundaries; an optional verification mode
//     (Config.VerifyPasses) checkpoints IR and liveness invariants after
//     every pass and attributes the first breakage to the pass that
//     introduced it; and a degradation ladder retries a faulting function
//     first without optimization, then on the baseline spill-to-RAM path,
//     so one bad function degrades instead of failing the program. Failed
//     attempts are captured as replayable crash repro bundles
//     (Config.ReproDir, internal/repro).
//
// Parallel compilation is deterministic: every pass mutates only its own
// function, so workers=N produces bit-identical output to workers=1 (the
// package test suite asserts this under the race detector, including for
// degraded functions). The one documented exception is timeout-induced
// degradation, which depends on wall-clock scheduling.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccmem/internal/core"
	"ccmem/internal/diskcache"
	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/opt"
	"ccmem/internal/regalloc"
	"ccmem/internal/remotecache"
	"ccmem/internal/repro"
	"ccmem/internal/sim"
)

// Strategy selects how register spills are placed. The values mirror the
// paper's three CCM algorithms plus the no-CCM baseline (ccm.Strategy is
// the public-facade twin of this type).
type Strategy int

const (
	// NoCCM spills to the activation record only (the baseline).
	NoCCM Strategy = iota
	// PostPass promotes spills with the stand-alone intraprocedural CCM
	// allocator.
	PostPass
	// PostPassInterproc adds the bottom-up call-graph walk.
	PostPassInterproc
	// Integrated assigns CCM locations during spill-code insertion inside
	// the Chaitin-Briggs allocator.
	Integrated
)

func (s Strategy) String() string {
	switch s {
	case NoCCM:
		return "none"
	case PostPass:
		return "postpass"
	case PostPassInterproc:
		return "postpass-ipa"
	case Integrated:
		return "integrated"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a command-line name into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "none":
		return NoCCM, nil
	case "postpass":
		return PostPass, nil
	case "postpass-ipa", "ipa":
		return PostPassInterproc, nil
	case "integrated":
		return Integrated, nil
	}
	return NoCCM, fmt.Errorf("unknown strategy %q (want none, postpass, postpass-ipa, integrated)", s)
}

// InjectedPass is an experimental per-function pass run between the
// scalar optimizer and the register allocator — the hook an RL-driven or
// otherwise untrusted transform plugs into. Injected passes run under the
// same isolation as built-in passes (recover, checkpoints, the
// degradation ladder), and the first rung of the ladder drops them, so a
// crashing experiment can never take the toolchain down. The context is
// the per-function compile context; long-running passes should honor it.
type InjectedPass struct {
	Name string
	Fn   func(ctx context.Context, f *ir.Func) error
}

// Config parameterizes one compilation. The zero value compiles like the
// paper's baseline: 32+32 registers, optimizer on, compaction on, no CCM.
type Config struct {
	Strategy Strategy
	CCMBytes int64 // capacity of the CCM; required unless Strategy is NoCCM; at most sim.MaxCCMBytes

	IntRegs   int // default 32; at most MaxRegs
	FloatRegs int // default 32; at most MaxRegs

	DisableOptimizer  bool // skip the scalar optimizer
	DisableCompaction bool // skip spill-memory compaction (and the whole back stage)
	CleanupSpills     bool // run the post-allocation spill-code peephole

	// Fault isolation & graceful degradation.

	// VerifyPasses runs ir.VerifyFunc plus the liveness-consistency check
	// as a checkpoint after every per-function pass (and once on the
	// input), attributing the first broken invariant to the pass that
	// introduced it.
	VerifyPasses bool
	// FuncTimeout bounds each per-function compile attempt. The deadline
	// is checked cooperatively at pass boundaries and passed to injected
	// passes; a built-in pass that loops forever cannot be preempted. On
	// expiry the attempt fails and the degradation ladder takes over
	// (timeout-induced degradation is wall-clock dependent and therefore
	// not deterministic). 0 means no limit.
	FuncTimeout time.Duration
	// FuncRetries is the number of extra attempts at the same degradation
	// rung before descending to the next one.
	FuncRetries int
	// Strict fails the whole compile on the first fault instead of
	// degrading (repro bundles are still written).
	Strict bool
	// ReproDir, when non-empty, receives one crash repro bundle
	// (internal/repro) per failed attempt.
	ReproDir string
	// InjectFront holds experimental passes run between optimize and
	// regalloc. Closures cannot be content-addressed, so any injected
	// pass disables the compile cache for the whole Compile.
	InjectFront []InjectedPass `json:"-"`

	// DiffCheck runs the differential-execution miscompile oracle
	// (internal/oracle) against the input program: DiffFinal once on the
	// compiled output, DiffPerStage additionally at each stage boundary.
	// A divergence is bisected across per-pass snapshots to the first
	// semantically-divergent pass; in Strict mode it fails the compile
	// with a *MiscompileError, otherwise the culprit function is forced
	// down the degradation ladder and the compile retries. Per-function
	// caching is disabled while checking (snapshots must be recorded),
	// but whole-program cache entries — stored only for divergence-free
	// compiles — are still served.
	DiffCheck DiffCheck
	// DiffVectors is the number of argument vectors per checked entry
	// function (0 = the oracle default of 3).
	DiffVectors int

	// postPassHook is a test seam: it is invoked with each function name
	// as the interprocedural barrier reaches it, and may panic to
	// simulate a mid-walk allocator fault.
	postPassHook func(name string)
}

// MaxRegs bounds IntRegs and FloatRegs. The allocator sizes
// per-function tables by the register count, so an unbounded count is
// an unbounded allocation (and overflows ir.Reg past 2^31). 1024 is 32×
// the paper's 32 registers per class, above every experiment's value.
const MaxRegs = 1024

// ErrCCMInput reports a compiler input that already contains CCM
// operations. Only the compiler places values in the CCM, and the
// allocators assume they own all of it; an input ccmspill or ccmrestore
// would address slots no allocator accounts for.
var ErrCCMInput = errors.New("input contains CCM operations")

// checkNoCCMOps rejects a program any of whose functions contains a CCM
// operation (ErrCCMInput).
func checkNoCCMOps(p *ir.Program) error {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op.IsCCMOp() {
					return fmt.Errorf("pipeline: func %s: %w (%s)", f.Name, ErrCCMInput, b.Instrs[i].Op)
				}
			}
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.IntRegs == 0 {
		c.IntRegs = 32
	}
	if c.FloatRegs == 0 {
		c.FloatRegs = 32
	}
	return c
}

func (c Config) validate() error {
	if c.IntRegs < 0 || c.IntRegs > MaxRegs || c.FloatRegs < 0 || c.FloatRegs > MaxRegs {
		return fmt.Errorf("pipeline: register counts must be in [0, %d], got %d int and %d float",
			MaxRegs, c.IntRegs, c.FloatRegs)
	}
	if c.Strategy != NoCCM && c.CCMBytes <= 0 {
		return fmt.Errorf("pipeline: strategy %v requires CCMBytes > 0", c.Strategy)
	}
	if c.CCMBytes > sim.MaxCCMBytes {
		return fmt.Errorf("pipeline: CCMBytes must be at most %d, got %d", sim.MaxCCMBytes, c.CCMBytes)
	}
	if c.FuncRetries < 0 {
		return fmt.Errorf("pipeline: FuncRetries must be >= 0, got %d", c.FuncRetries)
	}
	if c.FuncTimeout < 0 {
		return fmt.Errorf("pipeline: FuncTimeout must be >= 0, got %v", c.FuncTimeout)
	}
	for _, ip := range c.InjectFront {
		if ip.Name == "" || ip.Fn == nil {
			return fmt.Errorf("pipeline: injected pass must have a name and a body")
		}
	}
	if c.DiffCheck < DiffOff || c.DiffCheck > DiffPerStage {
		return fmt.Errorf("pipeline: unknown DiffCheck mode %d", int(c.DiffCheck))
	}
	if c.DiffVectors < 0 {
		return fmt.Errorf("pipeline: DiffVectors must be >= 0, got %d", c.DiffVectors)
	}
	return nil
}

// Options configure a Driver.
type Options struct {
	// Workers bounds the per-function worker pool; 0 means GOMAXPROCS.
	Workers int
	// Cache is the artifact store shared by every Compile on this driver.
	// nil creates a private cache of DefaultCacheEntries; to share one
	// cache across drivers, pass the same *Cache to each.
	Cache *Cache
	// DisableCache turns content-addressed caching off entirely
	// (including the disk tier).
	DisableCache bool

	// CacheDir enables the persistent disk tier (internal/diskcache)
	// under the given directory: artifacts survive process restarts, and
	// a second driver opened on the same directory serves them without
	// recompiling. Opening the tier can fail (unwritable path, sick
	// disk); the driver then runs memory-only and reports the cause via
	// DiskCacheErr — a broken disk tier never fails compilation.
	CacheDir string
	// CacheBytes is the disk tier's byte budget, evicted LRU-by-access;
	// <= 0 uses diskcache.DefaultMaxBytes.
	CacheBytes int64
	// DiskFS overrides the filesystem the disk tier runs on — the fault
	// injection seam (diskcache.FaultFS). nil uses the real filesystem.
	DiskFS diskcache.FS

	// RemoteURL enables the remote HTTP tier (internal/remotecache): a
	// shared cache server consulted after a disk miss, with hits promoted
	// into the upper tiers and stores written behind asynchronously. Like
	// the disk tier it is an accelerator, not a dependency — a sick or
	// absent server costs time, never bytes, and never fails a compile
	// (the client's circuit breaker stops paying for a dead server after
	// a few failures). Empty disables the tier; a malformed URL is
	// reported via RemoteCacheErr and the driver runs without the tier.
	RemoteURL string
	// RemoteURLs enables the replicated remote fleet: two or more
	// ccmcached base URLs behind the same tier contract, with rendezvous
	// placement, per-node circuit breakers, failover reads, replicated
	// write-behind puts, and async read-repair (remotecache.Fleet).
	// A single entry behaves exactly like RemoteURL. When both fields
	// are set, RemoteURL is treated as one more fleet node.
	RemoteURLs []string
	// RemoteToken is the bearer token sent with every remote-tier
	// request — required to join a fleet whose ccmcached runs with
	// -auth-token. Empty sends no Authorization header.
	RemoteToken string
	// RemoteFaultRT overrides the remote client's HTTP transport — the
	// network fault-injection seam (remotecache.FaultRT). nil uses the
	// real transport.
	RemoteFaultRT http.RoundTripper
	// RemoteFaultRTs overrides transports per fleet node — the per-node
	// fault-injection seam. When non-nil it must match the resolved node
	// list exactly; nil entries fall back to RemoteFaultRT.
	RemoteFaultRTs []http.RoundTripper
	// RemoteReplicas is how many healthy fleet nodes each write-behind
	// put lands on; <= 0 uses the fleet default (2, capped at the node
	// count). Ignored for a single-server tier.
	RemoteReplicas int
	// RemoteTuning adjusts the remote client's hardening knobs (timeouts,
	// retries, breaker thresholds); zero fields take remotecache defaults.
	RemoteTuning remotecache.Tuning

	// Tracer, when non-nil, records a span for every compile, stage,
	// pass, cache lookup, oracle run, and repro write on this driver.
	// Workers record into lock-free per-worker shards; export the merged,
	// deterministically ordered result with Tracer.WriteChromeTrace after
	// the compiles of interest have returned. nil disables tracing at
	// ~zero cost.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives named counters, gauges, and
	// per-pass latency histograms from every subsystem the driver runs
	// (regalloc, CCM promotion, compaction, opt, oracle, both cache
	// tiers). Counter and gauge values are deterministic across worker
	// counts; histogram bucket placements are wall-clock and are not.
	// nil disables metrics at ~zero cost.
	Metrics *obs.Registry
	// PprofLabels runs every pass body under runtime/pprof.Do with
	// ccm_func/ccm_pass labels, so CPU profiles attribute samples to
	// passes and functions.
	PprofLabels bool
}

// Driver is a reusable compilation pipeline. It is safe for concurrent
// use; the cache and cumulative metrics are shared across Compile calls.
type Driver struct {
	workers   int
	cache     *Cache // nil when caching is disabled
	diskErr   error  // why the disk tier failed to open (nil when absent or healthy)
	remoteErr error  // why the remote tier failed to build (nil when absent or healthy)

	tracer *obs.Tracer   // nil when tracing is off
	reg    *obs.Registry // nil when metrics are off
	labels bool          // run pass bodies under pprof labels

	mu          sync.Mutex
	cum         *metrics // cumulative per-pass totals across compiles
	compiles    int64
	funcsTotal  int64
	wallTotal   int64
	programHits int64
	failures    int64
	degraded    int64

	// Cumulative differential-oracle totals across compiles.
	diffChecked      int64
	diffRuns         int64
	diffInconclusive int64
	divergences      int64
	divergentPasses  map[string]int64
}

// New builds a Driver.
func New(opts Options) *Driver {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	d := &Driver{
		workers:         w,
		cum:             newMetrics(nil), // cumulative totals never re-observe histograms
		divergentPasses: map[string]int64{},
		tracer:          opts.Tracer,
		reg:             opts.Metrics,
		labels:          opts.PprofLabels,
	}
	if !opts.DisableCache {
		d.cache = opts.Cache
		if d.cache == nil {
			d.cache = NewCache(DefaultCacheEntries)
		}
		if opts.Metrics != nil {
			d.cache.SetMetrics(opts.Metrics)
		}
		if opts.CacheDir != "" {
			dc, err := diskcache.Open(opts.CacheDir, diskcache.Options{
				MaxBytes: opts.CacheBytes,
				FS:       opts.DiskFS,
			})
			if err != nil {
				// The disk tier is an accelerator, not a dependency: if it
				// cannot open, compile memory-only and say why on request.
				d.diskErr = err
			} else {
				d.cache.AttachDisk(dc)
			}
		}
		urls := opts.RemoteURLs
		if opts.RemoteURL != "" {
			urls = append([]string{opts.RemoteURL}, urls...)
		}
		switch {
		case len(urls) == 1:
			// Single server: the original client, byte-for-byte the same
			// behavior the single-URL flag always had.
			rt := opts.RemoteFaultRT
			if len(opts.RemoteFaultRTs) == 1 && opts.RemoteFaultRTs[0] != nil {
				rt = opts.RemoteFaultRTs[0]
			}
			rc, err := remotecache.NewClient(remotecache.Options{
				BaseURL:      urls[0],
				RoundTripper: rt,
				AuthToken:    opts.RemoteToken,
				Obs:          opts.Metrics,
				Tuning:       opts.RemoteTuning,
			})
			if err != nil {
				// Same contract as the disk tier: no remote, no failure.
				d.remoteErr = err
			} else {
				d.cache.AttachRemote(rc)
			}
		case len(urls) > 1:
			fl, err := remotecache.NewFleet(remotecache.FleetOptions{
				BaseURLs:      urls,
				RoundTripper:  opts.RemoteFaultRT,
				RoundTrippers: opts.RemoteFaultRTs,
				AuthToken:     opts.RemoteToken,
				Obs:           opts.Metrics,
				Tuning:        opts.RemoteTuning,
				Replicas:      opts.RemoteReplicas,
			})
			if err != nil {
				d.remoteErr = err
			} else {
				d.cache.AttachRemote(fl)
			}
		}
	}
	return d
}

// Workers returns the worker-pool bound.
func (d *Driver) Workers() int { return d.workers }

// Cache returns the driver's artifact store (nil when disabled).
func (d *Driver) Cache() *Cache { return d.cache }

// DiskCacheErr reports why the persistent tier requested via
// Options.CacheDir could not be opened; nil when it is healthy or was
// never requested. The driver compiles either way.
func (d *Driver) DiskCacheErr() error { return d.diskErr }

// RemoteCacheErr reports why the remote tier requested via
// Options.RemoteURL could not be built; nil when it is attached or was
// never requested. The driver compiles either way.
func (d *Driver) RemoteCacheErr() error { return d.remoteErr }

// RemoteCircuit reports the remote tier's circuit-breaker state
// ("closed", "half-open", or "open"); "" when no remote tier is
// attached. Operators read this off /metrics and /readyz — an open
// circuit means the tier is being skipped, not that the service is
// down.
func (d *Driver) RemoteCircuit() string {
	if d.cache == nil {
		return ""
	}
	rc := d.cache.Remote()
	if rc == nil {
		return ""
	}
	return rc.Stats().Circuit
}

// RemoteNodeStatus is one fleet node's health line for /readyz: the
// node URL and its circuit-breaker position.
type RemoteNodeStatus struct {
	URL     string `json:"url"`
	Circuit string `json:"circuit"`
}

// RemoteNodes reports the per-node circuit state of a replicated remote
// fleet, in configured node order; nil when no remote tier is attached
// or the tier is a single server (whose state RemoteCircuit covers).
// The fleet-level circuit folds these with "any healthy node keeps the
// tier usable" semantics, so a degraded report means every node here is
// open.
func (d *Driver) RemoteNodes() []RemoteNodeStatus {
	if d.cache == nil {
		return nil
	}
	rc := d.cache.Remote()
	if rc == nil {
		return nil
	}
	st := rc.Stats()
	if len(st.Nodes) == 0 {
		return nil
	}
	out := make([]RemoteNodeStatus, len(st.Nodes))
	for i, ns := range st.Nodes {
		out[i] = RemoteNodeStatus{URL: ns.URL, Circuit: ns.Stats.Circuit}
	}
	return out
}

// CloseRemote drains the remote tier's write-behind queue (bounded by
// ctx) and shuts its worker down — the exit barrier a process runs so
// its artifacts reach the fleet before it reports. Safe to call when no
// remote tier is attached; compiles after CloseRemote still read from
// the tier but no longer store into it.
func (d *Driver) CloseRemote(ctx context.Context) error {
	if d.cache == nil {
		return nil
	}
	rc := d.cache.Remote()
	if rc == nil {
		return nil
	}
	err := rc.Flush(ctx)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return err
}

// Tracer returns the span tracer this driver records into (nil when
// tracing is off).
func (d *Driver) Tracer() *obs.Tracer { return d.tracer }

// Registry returns the metrics registry this driver records into (nil
// when metrics are off).
func (d *Driver) Registry() *obs.Registry { return d.reg }

// labeled runs body under pprof labels naming the function and pass,
// when Options.PprofLabels is on; otherwise it calls body directly. The
// labeled context is handed to body so injected passes (and nested
// pprof.Do calls) observe the labels.
func (d *Driver) labeled(ctx context.Context, fn, pass string, body func(context.Context)) {
	if !d.labels {
		body(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("ccm_func", fn, "ccm_pass", pass), body)
}

// funcState carries per-function results from stage to stage.
type funcState struct {
	fr       FuncReport
	frontHit bool
	backHit  bool
	level    degradeLevel // rung the front stage finished at
}

// compileState is the mutable shared state of one Compile: failure and
// degradation counters plus the repro bundles written, updated from
// worker goroutines.
type compileState struct {
	cfg       Config
	inputText string // program text captured before any pass ran ("" when no ReproDir)

	// snaps records per-pass function snapshots for the current attempt
	// when the differential oracle is on (nil otherwise). Front and back
	// slots are per-function, so parallel workers write disjoint entries.
	snaps *snapRecorder

	failures atomic.Int64
	degraded atomic.Int64

	mu       sync.Mutex
	repros   []string
	reproErr error
}

// recordFailure counts one failed attempt and, when a repro directory is
// configured, writes the replayable bundle for it (emitting a
// "repro:write" span on sh).
func (cs *compileState) recordFailure(cerr *CompileError, passes []string, sh *obs.Shard) {
	cs.failures.Add(1)
	if cs.cfg.ReproDir == "" {
		return
	}
	b := &repro.Bundle{
		Kind:    repro.KindCompile,
		Func:    cerr.Func,
		Pass:    cerr.Pass,
		Level:   cerr.Level,
		Passes:  passes,
		Program: cs.inputText,
		Config:  marshalConfig(cs.cfg),
		Error:   cerr.Err.Error(),
		Stack:   string(cerr.Stack),
	}
	var t0 time.Time
	if sh != nil {
		t0 = time.Now()
	}
	path, err := repro.Write(cs.cfg.ReproDir, b)
	if sh != nil {
		sh.Record("repro:write", "repro", t0, time.Since(t0),
			obs.Attr{Key: "func", Value: cerr.Func}, obs.Attr{Key: "pass", Value: cerr.Pass})
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if err != nil {
		if cs.reproErr == nil {
			cs.reproErr = err
		}
		return
	}
	cs.repros = append(cs.repros, path)
}

// Compile runs the full pass sequence on p in place and returns the
// structured report. p must be verified input ILOC (unallocated).
func (d *Driver) Compile(p *ir.Program, cfg Config) (*Report, error) {
	return d.CompileContext(context.Background(), p, cfg)
}

// CompileContext is Compile with cooperative cancellation: ctx is checked
// between passes and between functions, and is the parent of every
// per-function timeout. On cancellation the in-flight passes finish (or
// fail their next boundary check) and the first context error is
// returned; no goroutines outlive the call.
func (d *Driver) CompileContext(ctx context.Context, p *ir.Program, cfg Config) (*Report, error) {
	return d.compile(ctx, p, cfg, d.tracer)
}

// CompileTraced is CompileContext with a per-compile tracer: spans for
// this compile alone are recorded into tr instead of the driver's
// tracer, while the cache, metrics registry, and cumulative totals stay
// shared. This is how a long-running service traces one request through
// a shared driver without either exporting every other request's spans
// or racing a live tracer's shards at export time — the caller owns tr,
// and once this call returns no shard of it is recording, so exporting
// it is safe. A nil tr falls back to the driver's tracer.
func (d *Driver) CompileTraced(ctx context.Context, p *ir.Program, cfg Config, tr *obs.Tracer) (*Report, error) {
	if tr == nil {
		tr = d.tracer
	}
	return d.compile(ctx, p, cfg, tr)
}

func (d *Driver) compile(ctx context.Context, p *ir.Program, cfg Config, tracer *obs.Tracer) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkNoCCMOps(p); err != nil {
		return nil, err
	}
	start := time.Now()
	m := newMetrics(d.reg)
	// One span shard per logical worker, all per-compile: the main
	// goroutine records into tid 0, pool worker w into tid w+1. Shards
	// are single-owner, so recording is lock-free; concurrent Compiles
	// each get their own set.
	mainSh := tracer.NewShard(0)
	var workerShards []*obs.Shard
	if tracer != nil {
		workerShards = make([]*obs.Shard, d.workers)
		for w := range workerShards {
			workerShards[w] = tracer.NewShard(w + 1)
		}
	}
	shardFor := func(w int) *obs.Shard {
		if workerShards == nil {
			return nil
		}
		return workerShards[w]
	}
	rep := &Report{
		Strategy: cfg.Strategy.String(),
		Workers:  d.workers,
		Funcs:    len(p.Funcs),
		PerFunc:  make(map[string]FuncReport, len(p.Funcs)),
	}
	// Injected passes are closures and cannot be content-addressed, so
	// they opt the whole compile out of the cache.
	cache := d.cache
	if len(cfg.InjectFront) > 0 {
		cache = nil
	}
	// Per-function caching is incompatible with the differential oracle:
	// a front or back hit skips exactly the passes whose snapshots
	// bisection reconstructs. The whole-program tier stays on — entries
	// are stored only for divergence-free compiles under a key that
	// includes the diff configuration.
	fnCache := cache
	if cfg.DiffCheck != DiffOff {
		fnCache = nil
	}
	cs := &compileState{cfg: cfg}
	if cfg.ReproDir != "" {
		// Captured before any pass mutates the program: bundles must carry
		// the original input, and p cannot be printed racily mid-stage.
		cs.inputText = p.String()
	}

	// Whole-program cache: a repeat compile of an identical (program,
	// Config) pair skips every pass, including verification.
	var progKey digest
	if cache != nil {
		progKey = programKey(p, cfg)
		if v, ok := cache.get(progKey, diskKindProgramV2, mainSh); ok {
			art := v.(*programArtifact)
			// The cached functions are frozen: handing them out by
			// reference is safe (anything that later wants to mutate one
			// — including a re-compile of this very program object —
			// clones at its own mutation point), and it makes the hit
			// path free of deep copies.
			for i := range p.Funcs {
				p.Funcs[i] = art.funcs[i]
			}
			for name, fr := range art.perFunc {
				fr.FrontCacheHit = true
				fr.BackCacheHit = true
				rep.PerFunc[name] = fr
			}
			rep.ProgramCacheHit = true
			d.finish(rep, cs, nil, m, start, true, mainSh, tracer)
			return rep, nil
		}
	}

	var do *diffOracle
	if cfg.DiffCheck != DiffOff {
		do = newDiffOracle(p, cfg, d.reg)
	}
	forced := newForcedDegrade()
	// Each retry strictly escalates one function's quarantine, so the
	// loop terminates; the cap is a backstop, not a policy.
	maxAttempts := 4*len(p.Funcs) + 4

	var states []funcState
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Quarantine retry: recompile the pristine input with the
			// forced degradations in place. The degraded counter restarts
			// so the report describes the program actually shipped;
			// failures and divergence counters accumulate.
			for i := range p.Funcs {
				p.Funcs[i] = do.pre.Funcs[i].Clone()
			}
			cs.degraded.Store(0)
		}
		states = make([]funcState, len(p.Funcs))
		cs.snaps = nil
		if do != nil {
			cs.snaps = newSnapRecorder(len(p.Funcs))
		}

		// check runs the oracle at one boundary; a true retry means a
		// divergence was bisected, quarantined, and the compile should
		// restart. All oracle work happens here, on the calling
		// goroutine, after the parallel stages have joined — worker
		// count cannot influence the verdict or the counters.
		check := func(stage string) (retry bool, err error) {
			var t0 time.Time
			if mainSh != nil {
				t0 = time.Now()
			}
			me, err := do.check(ctx, p, stage, cs.snaps.upTo(stage))
			if mainSh != nil {
				mainSh.Record("oracle:"+stage, "oracle", t0, time.Since(t0))
			}
			if err != nil {
				d.foldCounters(cs, do)
				return false, err
			}
			if me == nil {
				return false, nil
			}
			cs.recordMiscompile(me, p, do, mainSh)
			if cfg.Strict || attempt+1 >= maxAttempts || !forced.escalate(me, cfg) {
				d.foldCounters(cs, do)
				return false, me
			}
			return true, nil
		}

		// Front stage (parallel): scalar optimization, injected
		// experimental passes, and register allocation, each function
		// isolated under the degradation ladder. Each worker touches only
		// p.Funcs[i], so scheduling cannot change the output.
		err := d.forEach(ctx, len(p.Funcs), func(w, i int) error {
			return d.compileFront(ctx, p, i, cfg, fnCache, m, cs, &states[i], forced, shardFor(w))
		})
		if err != nil {
			return nil, err
		}
		if cfg.DiffCheck == DiffPerStage {
			retry, err := check(diffStageFront)
			if err != nil {
				return nil, err
			}
			if retry {
				continue
			}
		}

		// Interprocedural barrier (sequential): the post-pass CCM
		// allocator walks the call graph bottom-up, so every function's
		// allocated body must be final before any promotion decision is
		// made. Functions that degraded to the baseline rung keep their
		// spill-to-RAM code and are excluded from promotion.
		if cfg.Strategy == PostPass || cfg.Strategy == PostPassInterproc {
			if err := d.postPassBarrier(ctx, p, cfg, m, cs, states, forced, mainSh); err != nil {
				d.foldCounters(cs, do)
				return nil, err
			}
			if cfg.DiffCheck == DiffPerStage {
				retry, err := check(diffStagePostPass)
				if err != nil {
					return nil, err
				}
				if retry {
					continue
				}
			}
		}

		// Back stage (parallel): spill-code cleanup and spill-memory
		// compaction, both strictly per-function. A fault here degrades
		// to shipping the function with its uncompacted post-barrier
		// body.
		if cfg.CleanupSpills || !cfg.DisableCompaction {
			err = d.forEach(ctx, len(p.Funcs), func(w, i int) error {
				return d.compileBack(ctx, p, i, cfg, fnCache, m, cs, &states[i], forced, shardFor(w))
			})
			if err != nil {
				return nil, err
			}
		}

		{
			n := totalInstrs(p)
			t := time.Now()
			if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
				return nil, fmt.Errorf("pipeline: post-compile verification failed: %w", err)
			}
			dur := time.Since(t)
			m.pass(PassVerify, dur, n, n)
			if mainSh != nil {
				mainSh.Record("pass:"+PassVerify, "pass", t, dur)
			}
		}

		if do != nil {
			retry, err := check(diffStageFinal)
			if err != nil {
				return nil, err
			}
			if retry {
				continue
			}
		}
		break
	}

	for i, f := range p.Funcs {
		st := states[i]
		st.fr.Instrs = f.NumInstrs()
		st.fr.FrontCacheHit = st.frontHit
		st.fr.BackCacheHit = st.backHit
		if me := forced.reason[f.Name]; me != nil && st.fr.Error == "" {
			st.fr.FailedPass = me.Pass
			st.fr.Error = "miscompile: " + me.Divergence.Detail
		}
		rep.PerFunc[f.Name] = st.fr
	}

	// A program artifact is cached only for fault-free, divergence-free
	// compiles: degraded output is correct but below configured fidelity,
	// and must not be served to a later compile whose faults might have
	// been fixed.
	if cache != nil && cs.failures.Load() == 0 && (do == nil || do.divergences == 0) {
		art := &programArtifact{
			funcs:   make([]*ir.Func, len(p.Funcs)),
			perFunc: make(map[string]FuncReport, len(rep.PerFunc)),
		}
		for i, f := range p.Funcs {
			art.funcs[i] = f.Clone()
		}
		for name, fr := range rep.PerFunc {
			fr.FrontCacheHit = false
			fr.BackCacheHit = false
			art.perFunc[name] = fr
		}
		cache.put(progKey, diskKindProgramV2, art)
	}

	d.finish(rep, cs, do, m, start, false, mainSh, tracer)
	return rep, nil
}

// postPassBarrier runs the sequential interprocedural CCM promotion with
// per-function fault quarantine: a panic or error mid-walk is attributed
// to the function being processed (via the allocator's OnFunc progress
// callback), the pre-barrier bodies are restored, the culprit joins the
// skip set, and the walk retries. One bad function therefore loses only
// its own promotion; attribution failures degrade the whole barrier to
// the heavyweight spill path instead of failing the program.
func (d *Driver) postPassBarrier(ctx context.Context, p *ir.Program, cfg Config, m *metrics, cs *compileState, states []funcState, forced *forcedDegrade, sh *obs.Shard) error {
	skip := map[string]bool{}
	for i, f := range p.Funcs {
		if states[i].level >= levelBaseline {
			skip[f.Name] = true
		}
	}
	// Functions quarantined by the miscompile oracle keep their
	// spill-to-RAM code: the oracle bisected a previous divergence to the
	// promotion of exactly these functions.
	for i, f := range p.Funcs {
		if forced.noCCM[f.Name] && !skip[f.Name] {
			skip[f.Name] = true
			st := &states[i]
			if st.fr.Degraded == "" {
				st.fr.Degraded = "no-ccm"
				cs.degraded.Add(1)
			} else {
				st.fr.Degraded += "+no-ccm"
			}
		}
	}
	// Copy-on-write point: the walk rewrites every non-skipped function,
	// so frozen ones (front-stage cache hits shared by reference) are
	// cloned now. Skipped functions are never touched and may stay frozen.
	for i, f := range p.Funcs {
		if f.Frozen() && !skip[f.Name] {
			p.Funcs[i] = f.Clone()
		}
	}
	// The allocator rewrites functions as it walks; recovery from a
	// mid-walk fault needs the pre-barrier state back. A function that is
	// frozen here is one the walk will not touch, so the reference itself
	// is a valid snapshot.
	var snapshot []*ir.Func
	if !cfg.Strict {
		snapshot = make([]*ir.Func, len(p.Funcs))
		for i, f := range p.Funcs {
			if f.Frozen() {
				snapshot[i] = f
			} else {
				snapshot[i] = f.Clone()
			}
		}
	}
	quarantine := func(name, errText string) {
		for i, f := range p.Funcs {
			if f.Name != name {
				continue
			}
			st := &states[i]
			if st.fr.Degraded == "" {
				st.fr.Degraded = "no-ccm"
				cs.degraded.Add(1)
			} else {
				st.fr.Degraded += "+no-ccm"
			}
			st.fr.FailedPass = PassPostPass
			st.fr.Error = errText
		}
	}
	for attempt := 0; ; attempt++ {
		if cerr := ctxErr(ctx, PassPostPass, "", levelFull); cerr != nil {
			return cerr
		}
		before := totalInstrs(p)
		t := time.Now()
		var res *core.PostPassResult
		var last string // function the walk was processing when it faulted
		var cerr *CompileError
		d.labeled(ctx, "", PassPostPass, func(context.Context) {
			cerr = runGuarded(PassPostPass, "", levelFull, func() error {
				var err error
				res, err = core.PostPass(p, core.PostPassOptions{
					CCMBytes:        cfg.CCMBytes,
					Interprocedural: cfg.Strategy == PostPassInterproc,
					Skip:            skip,
					OnFunc: func(name string) {
						last = name
						if cfg.postPassHook != nil {
							cfg.postPassHook(name)
						}
					},
				})
				return err
			})
		})
		if cerr == nil {
			dur := time.Since(t)
			m.pass(PassPostPass, dur, before, totalInstrs(p))
			if sh != nil {
				sh.Record("pass:"+PassPostPass, "pass", t, dur)
			}
			var promoted, ccmBytes int64
			for i, f := range p.Funcs {
				if fp := res.PerFunc[f.Name]; fp != nil {
					states[i].fr.PromotedWebs = fp.Promoted
					states[i].fr.CCMBytes = fp.CCMBytes
					promoted += int64(fp.Promoted)
					ccmBytes += fp.CCMBytes
				}
				if cs.snaps != nil && !skip[f.Name] {
					cs.snaps.barrier = append(cs.snaps.barrier, passSnap{PassPostPass, f.Name, i, f.Clone()})
				}
			}
			if d.reg != nil {
				d.reg.Counter("ccm.promoted_webs").Add(promoted)
				d.reg.Counter("ccm.bytes_used").Add(ccmBytes)
			}
			return nil
		}
		cerr.Func = last
		cs.recordFailure(cerr, []string{PassPostPass}, sh)
		if cfg.Strict {
			return cerr
		}
		// Restore fresh clones: the retry mutates them again.
		for i := range p.Funcs {
			p.Funcs[i] = snapshot[i].Clone()
		}
		if last == "" || attempt >= len(p.Funcs) {
			// Cannot attribute (or the walk keeps faulting): degrade the
			// whole barrier and ship everything with heavyweight spills.
			for _, f := range p.Funcs {
				if !skip[f.Name] {
					quarantine(f.Name, cerr.Err.Error())
				}
			}
			return nil
		}
		skip[last] = true
		quarantine(last, cerr.Err.Error())
	}
}

// frontPass is one named step of the per-function front stage.
type frontPass struct {
	name string
	run  func(ctx context.Context, f *ir.Func) error
}

// frontPasses assembles the front-stage sequence for one degradation
// rung: the ladder drops the optimizer and injected passes first, then
// the integrated CCM assignment.
func (d *Driver) frontPasses(cfg Config, level degradeLevel, st *funcState) []frontPass {
	var passes []frontPass
	if !cfg.DisableOptimizer && level < levelNoOpt {
		passes = append(passes, frontPass{PassOptimize, func(_ context.Context, f *ir.Func) error {
			s, err := opt.Optimize(f)
			if err != nil {
				return err
			}
			if d.reg != nil {
				d.reg.Counter("opt.value_numbered").Add(int64(s.ValueNumbered))
				d.reg.Counter("opt.constants_folded").Add(int64(s.ConstantsFolded))
				d.reg.Counter("opt.branches_folded").Add(int64(s.BranchesFolded))
				d.reg.Counter("opt.hoisted").Add(int64(s.Hoisted))
				d.reg.Counter("opt.dead_removed").Add(int64(s.DeadRemoved))
				d.reg.Counter("opt.blocks_merged").Add(int64(s.BlocksMerged))
				d.reg.Counter("opt.blocks_removed").Add(int64(s.BlocksRemoved))
			}
			return nil
		}})
	}
	if level < levelNoOpt {
		for _, ip := range cfg.InjectFront {
			passes = append(passes, frontPass{ip.Name, ip.Fn})
		}
	}
	ra := regalloc.Options{IntRegs: cfg.IntRegs, FloatRegs: cfg.FloatRegs, Obs: d.reg}
	if cfg.Strategy == Integrated && level < levelBaseline {
		ra.CCMBytes = cfg.CCMBytes
	}
	passes = append(passes, frontPass{PassRegalloc, func(_ context.Context, f *ir.Func) error {
		res, err := regalloc.Allocate(f, ra)
		if err != nil {
			return err
		}
		st.fr.SpillBytesNaive = res.FrameBytes
		st.fr.SpilledRanges = res.SpilledRanges
		st.fr.CCMBytes = res.CCMBytesUsed
		st.fr.PromotedWebs = res.CCMRanges
		return nil
	}})
	return passes
}

func passNames(passes []frontPass) []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.name
	}
	return names
}

// compileFront runs the front stage for p.Funcs[i], descending the
// degradation ladder on faults. It returns an error only when the
// compile as a whole must stop: context cancellation, Strict mode, or an
// exhausted ladder.
func (d *Driver) compileFront(ctx context.Context, p *ir.Program, i int, cfg Config, cache *Cache, m *metrics, cs *compileState, st *funcState, forced *forcedDegrade, sh *obs.Shard) error {
	f := p.Funcs[i]
	if sh != nil {
		fstart := time.Now()
		defer func() {
			sh.Record("front", "stage", fstart, time.Since(fstart), obs.Attr{Key: "func", Value: f.Name})
		}()
	}
	var key digest
	if cache != nil {
		key = frontKey(f, cfg)
		if v, ok := cache.get(key, diskKindFrontV2, sh); ok {
			// Frozen artifact, shared by reference; the stages that rewrite
			// it (barrier, back stage) clone at their own mutation points.
			art := v.(*frontArtifact)
			p.Funcs[i] = art.fn
			st.fr = art.fr
			st.frontHit = true
			return nil
		}
	}

	// Copy-on-write point: a frozen input (a cached artifact compiled
	// again) must not be rewritten in place.
	if f.Frozen() {
		f = f.Clone()
		p.Funcs[i] = f
	}

	// The ladder re-runs the stage from pristine input, so failed
	// attempts must not leak partial rewrites. A function quarantined by
	// the miscompile oracle starts at its forced rung.
	pristine := p.Funcs[i].Clone()
	level := forced.level[f.Name]
	retries := cfg.FuncRetries
	for {
		if cs.snaps != nil {
			cs.snaps.front[i] = cs.snaps.front[i][:0]
		}
		cerr := d.frontAttempt(ctx, p.Funcs[i], cfg, level, m, st, cs.snaps, i, sh)
		if cerr == nil {
			break
		}
		st.fr.Attempts++
		st.fr.FailedPass = cerr.Pass
		st.fr.Error = cerr.Err.Error()
		cs.recordFailure(cerr, passNames(d.frontPasses(cfg, level, st)), sh)
		if ctx.Err() != nil {
			// The compile itself was cancelled: abort, don't degrade.
			return cerr
		}
		if cfg.Strict {
			return cerr
		}
		p.Funcs[i] = pristine.Clone()
		st.fr = FuncReport{Attempts: st.fr.Attempts, FailedPass: st.fr.FailedPass, Error: st.fr.Error}
		if retries > 0 {
			retries--
			continue
		}
		level++
		retries = cfg.FuncRetries
		if level >= numLevels {
			return cerr // ladder exhausted: nothing left to strip
		}
	}
	st.fr.Attempts++
	st.level = level
	if level > levelFull {
		st.fr.Degraded = level.String()
		cs.degraded.Add(1)
	} else if cache != nil && st.fr.Attempts == 1 {
		// The clone isolates the artifact from the stages still to run on
		// p.Funcs[i]; put freezes it before sharing.
		cache.put(key, diskKindFrontV2, &frontArtifact{fn: p.Funcs[i].Clone(), fr: st.fr})
	}
	return nil
}

// frontAttempt makes one pass over the front-stage sequence at the given
// rung: deadline check, guarded execution, optional checkpoint, for each
// pass in turn.
func (d *Driver) frontAttempt(ctx context.Context, f *ir.Func, cfg Config, level degradeLevel, m *metrics, st *funcState, snaps *snapRecorder, fnIdx int, sh *obs.Shard) *CompileError {
	fctx := ctx
	if cfg.FuncTimeout > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(ctx, cfg.FuncTimeout)
		defer cancel()
	}
	if cfg.VerifyPasses {
		// Pre-pass checkpoint: a broken invariant already present in the
		// input must be attributed to the input, not to the first pass.
		if cerr := checkpoint(PassInput, f, level, false); cerr != nil {
			return cerr
		}
	}
	for _, pass := range d.frontPasses(cfg, level, st) {
		if cerr := ctxErr(fctx, pass.name, f.Name, level); cerr != nil {
			return cerr
		}
		before := f.NumInstrs()
		t := time.Now()
		var cerr *CompileError
		d.labeled(fctx, f.Name, pass.name, func(lctx context.Context) {
			cerr = runGuarded(pass.name, f.Name, level, func() error { return pass.run(lctx, f) })
		})
		if cerr != nil {
			return cerr
		}
		dur := time.Since(t)
		m.pass(pass.name, dur, before, f.NumInstrs())
		if sh != nil {
			sh.Record("pass:"+pass.name, "pass", t, dur,
				obs.Attr{Key: "func", Value: f.Name}, obs.Attr{Key: "level", Value: level.String()})
		}
		if cfg.VerifyPasses {
			if cerr := checkpoint(pass.name, f, level, false); cerr != nil {
				return cerr
			}
		}
		if snaps != nil {
			snaps.front[fnIdx] = append(snaps.front[fnIdx], passSnap{pass.name, f.Name, fnIdx, f.Clone()})
		}
	}
	return nil
}

// compileBack runs the back stage for p.Funcs[i]. A fault degrades to
// shipping the uncompacted post-barrier body rather than failing the
// compile.
func (d *Driver) compileBack(ctx context.Context, p *ir.Program, i int, cfg Config, cache *Cache, m *metrics, cs *compileState, st *funcState, forced *forcedDegrade, sh *obs.Shard) error {
	f := p.Funcs[i]
	if sh != nil {
		bstart := time.Now()
		defer func() {
			sh.Record("back", "stage", bstart, time.Since(bstart), obs.Attr{Key: "func", Value: f.Name})
		}()
	}
	if forced.noCompact[f.Name] {
		// Quarantined by the miscompile oracle: ship the post-barrier
		// body untouched.
		if st.fr.Degraded == "" {
			st.fr.Degraded = "no-compact"
			cs.degraded.Add(1)
		} else {
			st.fr.Degraded += "+no-compact"
		}
		return nil
	}
	var key digest
	if cache != nil {
		key = backKey(f, cfg)
		if v, ok := cache.get(key, diskKindBackV2, sh); ok {
			// Frozen artifact, shared by reference: the back stage is the
			// last rewrite, so nothing downstream mutates it (the program
			// artifact put clones for itself).
			art := v.(*backArtifact)
			p.Funcs[i] = art.fn
			st.fr.SpillBytesCompacted = art.compactAfter
			st.fr.SpillWebs = art.webs
			st.backHit = true
			return nil
		}
	}

	fctx := ctx
	if cfg.FuncTimeout > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(ctx, cfg.FuncTimeout)
		defer cancel()
	}
	var pristine *ir.Func
	if f.Frozen() {
		// Copy-on-write point: the cleanup/compaction passes rewrite the
		// function, so a frozen one (a front-stage cache hit that skipped
		// the barrier) is cloned here — and the frozen original doubles
		// as the pristine snapshot for free.
		pristine = f
		f = f.Clone()
		p.Funcs[i] = f
	} else if !cfg.Strict {
		pristine = f.Clone()
	}
	attempt := func() *CompileError {
		if cfg.CleanupSpills {
			if cerr := ctxErr(fctx, PassCleanup, f.Name, st.level); cerr != nil {
				return cerr
			}
			before := f.NumInstrs()
			t := time.Now()
			var cerr *CompileError
			d.labeled(fctx, f.Name, PassCleanup, func(context.Context) {
				cerr = runGuarded(PassCleanup, f.Name, st.level, func() error {
					regalloc.CleanupSpillCode(f)
					return nil
				})
			})
			if cerr != nil {
				return cerr
			}
			dur := time.Since(t)
			m.pass(PassCleanup, dur, before, f.NumInstrs())
			if sh != nil {
				sh.Record("pass:"+PassCleanup, "pass", t, dur, obs.Attr{Key: "func", Value: f.Name})
			}
			if cfg.VerifyPasses {
				if cerr := checkpoint(PassCleanup, f, st.level, false); cerr != nil {
					return cerr
				}
			}
			if cs.snaps != nil {
				cs.snaps.back[i] = append(cs.snaps.back[i], passSnap{PassCleanup, f.Name, i, f.Clone()})
			}
		}
		if !cfg.DisableCompaction {
			if cerr := ctxErr(fctx, PassCompact, f.Name, st.level); cerr != nil {
				return cerr
			}
			before := f.NumInstrs()
			t := time.Now()
			var cerr *CompileError
			d.labeled(fctx, f.Name, PassCompact, func(context.Context) {
				cerr = runGuarded(PassCompact, f.Name, st.level, func() error {
					cres, err := core.CompactSpills(f)
					if err != nil {
						return err
					}
					st.fr.SpillBytesCompacted = cres.AfterBytes
					st.fr.SpillWebs = cres.Webs
					if d.reg != nil {
						d.reg.Counter("compact.webs").Add(int64(cres.Webs))
						d.reg.Counter("compact.bytes_before").Add(cres.BeforeBytes)
						d.reg.Counter("compact.bytes_after").Add(cres.AfterBytes)
					}
					return nil
				})
			})
			if cerr != nil {
				return cerr
			}
			dur := time.Since(t)
			m.pass(PassCompact, dur, before, f.NumInstrs())
			if sh != nil {
				sh.Record("pass:"+PassCompact, "pass", t, dur, obs.Attr{Key: "func", Value: f.Name})
			}
			if cfg.VerifyPasses {
				if cerr := checkpoint(PassCompact, f, st.level, false); cerr != nil {
					return cerr
				}
			}
			if cs.snaps != nil {
				cs.snaps.back[i] = append(cs.snaps.back[i], passSnap{PassCompact, f.Name, i, f.Clone()})
			}
		}
		return nil
	}
	if cerr := attempt(); cerr != nil {
		cs.recordFailure(cerr, []string{PassCleanup, PassCompact}, sh)
		if ctx.Err() != nil || cfg.Strict {
			return cerr
		}
		p.Funcs[i] = pristine
		if cs.snaps != nil {
			// The shipped body is the post-barrier one; snapshots from the
			// failed attempt no longer describe it.
			cs.snaps.back[i] = nil
		}
		st.fr.SpillBytesCompacted = 0
		st.fr.SpillWebs = 0
		st.fr.FailedPass = cerr.Pass
		st.fr.Error = cerr.Err.Error()
		if st.fr.Degraded == "" {
			cs.degraded.Add(1)
			st.fr.Degraded = "no-compact"
		} else {
			st.fr.Degraded += "+no-compact"
		}
		return nil
	}
	if cache != nil && st.fr.Degraded == "" && st.fr.Attempts <= 1 {
		cache.put(key, diskKindBackV2, &backArtifact{
			fn:           p.Funcs[i].Clone(),
			compactAfter: st.fr.SpillBytesCompacted,
			webs:         st.fr.SpillWebs,
		})
	}
	return nil
}

// finish stamps wall time, cache, fault, differential-oracle, and
// observability stats on rep and folds the compile into the driver's
// cumulative metrics. tracer is the tracer this compile recorded into
// (the driver's, unless CompileTraced overrode it).
func (d *Driver) finish(rep *Report, cs *compileState, do *diffOracle, m *metrics, start time.Time, programHit bool, sh *obs.Shard, tracer *obs.Tracer) {
	rep.WallNanos = time.Since(start).Nanoseconds()
	rep.Passes = m.stats()
	if d.cache != nil {
		rep.Cache = d.cache.Stats()
	}
	if sh != nil {
		sh.Record("compile", "pipeline", start, time.Since(start),
			obs.Attr{Key: "strategy", Value: rep.Strategy},
			obs.Attr{Key: "funcs", Value: fmt.Sprint(rep.Funcs)})
	}
	if d.reg != nil {
		d.reg.Counter("pipeline.compiles").Inc()
		d.reg.Counter("pipeline.funcs").Add(int64(rep.Funcs))
		d.reg.Counter("pipeline.failures").Add(cs.failures.Load())
		d.reg.Counter("pipeline.degraded").Add(cs.degraded.Load())
		if programHit {
			d.reg.Counter("pipeline.program_hits").Inc()
		}
		if d.cache != nil {
			// Gauges mirror the cache's cumulative counters so a metrics
			// snapshot is self-contained; the disk block surfaces the
			// persistent tier's robustness counters.
			cst := rep.Cache
			d.reg.Gauge("cache.hits").Set(cst.Hits)
			d.reg.Gauge("cache.misses").Set(cst.Misses)
			d.reg.Gauge("cache.entries").Set(int64(cst.Entries))
			d.reg.Gauge("cache.evictions").Set(cst.Evictions)
			d.reg.Gauge("diskcache.hits").Set(cst.Disk.Hits)
			d.reg.Gauge("diskcache.misses").Set(cst.Disk.Misses)
			d.reg.Gauge("diskcache.writes").Set(cst.Disk.Writes)
			d.reg.Gauge("diskcache.corruptions").Set(cst.Disk.Corruptions)
			d.reg.Gauge("diskcache.quarantines").Set(cst.Disk.Quarantines)
			d.reg.Gauge("diskcache.read_errors").Set(cst.Disk.ReadErrors)
			d.reg.Gauge("diskcache.write_errors").Set(cst.Disk.WriteErrors)
			d.reg.Gauge("diskcache.swept_temps").Set(cst.Disk.SweptTemps)
			d.reg.Gauge("diskcache.degraded_to_memory").Set(cst.Disk.DegradedToMemory)
			d.reg.Gauge("diskcache.bytes").Set(cst.Disk.Bytes)
			d.reg.Gauge("diskcache.entries").Set(int64(cst.Disk.Entries))
			if d.cache.Remote() != nil {
				// The remote block surfaces the network tier's hardening
				// counters; remotecache.circuit_state is set live by the
				// breaker itself on every transition.
				d.reg.Gauge("remotecache.hits").Set(cst.Remote.Hits)
				d.reg.Gauge("remotecache.misses").Set(cst.Remote.Misses)
				d.reg.Gauge("remotecache.puts").Set(cst.Remote.Puts)
				d.reg.Gauge("remotecache.put_drops").Set(cst.Remote.PutDrops)
				d.reg.Gauge("remotecache.put_errors").Set(cst.Remote.PutErrors)
				d.reg.Gauge("remotecache.retries").Set(cst.Remote.Retries)
				d.reg.Gauge("remotecache.timeouts").Set(cst.Remote.Timeouts)
				d.reg.Gauge("remotecache.net_errors").Set(cst.Remote.NetErrors)
				d.reg.Gauge("remotecache.http_errors").Set(cst.Remote.HTTPErrors)
				d.reg.Gauge("remotecache.corruptions").Set(cst.Remote.Corruptions)
				d.reg.Gauge("remotecache.skipped").Set(cst.Remote.Skipped)
				d.reg.Gauge("remotecache.trips").Set(cst.Remote.Trips)
				d.reg.Gauge("remotecache.probes").Set(cst.Remote.Probes)
				if len(cst.Remote.Nodes) > 0 {
					// Fleet-only mirrors; the live remotecache.fleet.*
					// counters are bumped by the fleet as events happen,
					// these gauges snapshot the same totals per report.
					d.reg.Gauge("remotecache.failovers").Set(cst.Remote.Failovers)
					d.reg.Gauge("remotecache.repairs").Set(cst.Remote.Repairs)
				}
			}
		}
	}
	rep.Spans = tracer.Count()
	rep.Metrics = d.reg.Snapshot()
	rep.Failures = cs.failures.Load()
	rep.Degraded = cs.degraded.Load()
	if do != nil {
		rep.DiffFuncsChecked = do.funcsChecked
		rep.DiffRuns = do.runs
		rep.DiffInconclusive = do.inconclusive
		rep.Divergences = do.divergences
		if len(do.divergentPasses) > 0 {
			rep.DivergentPasses = make(map[string]int64, len(do.divergentPasses))
			for k, v := range do.divergentPasses {
				rep.DivergentPasses[k] = v
			}
		}
	}
	cs.mu.Lock()
	sort.Strings(cs.repros)
	rep.Repros = cs.repros
	if cs.reproErr != nil {
		rep.ReproError = cs.reproErr.Error()
	}
	cs.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compiles++
	d.funcsTotal += int64(rep.Funcs)
	d.wallTotal += rep.WallNanos
	if programHit {
		d.programHits++
	}
	d.failures += rep.Failures
	d.degraded += rep.Degraded
	d.foldDiffLocked(do)
	d.cum.merge(m)
}

// foldCounters folds fault and oracle counters into the driver on the
// error path, where finish never runs.
func (d *Driver) foldCounters(cs *compileState, do *diffOracle) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failures += cs.failures.Load()
	d.degraded += cs.degraded.Load()
	d.foldDiffLocked(do)
}

func (d *Driver) foldDiffLocked(do *diffOracle) {
	if do == nil {
		return
	}
	d.diffChecked += do.funcsChecked
	d.diffRuns += do.runs
	d.diffInconclusive += do.inconclusive
	d.divergences += do.divergences
	for k, v := range do.divergentPasses {
		d.divergentPasses[k] += v
	}
}

// Metrics returns the driver's cumulative totals across every Compile:
// aggregated per-pass timings, total functions and wall time, the number
// of whole-program cache hits, fault counters, and a cache-counter
// snapshot. PerFunc is nil on the cumulative report.
func (d *Driver) Metrics() *Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := &Report{
		Strategy:         "(cumulative)",
		Workers:          d.workers,
		Compiles:         d.compiles,
		Funcs:            int(d.funcsTotal),
		WallNanos:        d.wallTotal,
		ProgramHits:      d.programHits,
		Failures:         d.failures,
		Degraded:         d.degraded,
		DiffFuncsChecked: d.diffChecked,
		DiffRuns:         d.diffRuns,
		DiffInconclusive: d.diffInconclusive,
		Divergences:      d.divergences,
		Passes:           d.cum.stats(),
	}
	if len(d.divergentPasses) > 0 {
		rep.DivergentPasses = make(map[string]int64, len(d.divergentPasses))
		for k, v := range d.divergentPasses {
			rep.DivergentPasses[k] = v
		}
	}
	if d.cache != nil {
		rep.Cache = d.cache.Stats()
	}
	rep.Spans = d.tracer.Count()
	rep.Metrics = d.reg.Snapshot()
	return rep
}

// forEach runs fn(worker, i) for i in [0,n) on the worker pool, checking
// ctx between items; worker identifies which pool slot ran the item (0
// on the sequential path), so callers can select per-worker span shards.
// With one worker (or one item) it degenerates to a plain loop; results
// are identical either way because each fn touches only its own index.
func (d *Driver) forEach(ctx context.Context, n int, fn func(worker, i int) error) error {
	workers := d.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("pipeline: %w", err)
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errMu  sync.Mutex
		first  error
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	next.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(fmt.Errorf("pipeline: %w", err))
					return
				}
				if err := fn(w, i); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

func totalInstrs(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}

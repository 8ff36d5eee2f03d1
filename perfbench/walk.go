package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"ccmem/internal/diskcache"
	"ccmem/internal/experiments"
	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// fsOp is one timed filesystem call made by the disk tier.
type fsOp struct {
	write bool
	start time.Time
	dur   time.Duration
	bytes int
}

// timingFS wraps the disk tier's filesystem seam (pipeline.Options.DiskFS)
// and records every read and write call with its duration.
type timingFS struct {
	diskcache.FS
	mu  sync.Mutex
	ops []fsOp
}

func (t *timingFS) record(write bool, start time.Time, n int) {
	d := time.Since(start)
	t.mu.Lock()
	t.ops = append(t.ops, fsOp{write, start, d, n})
	t.mu.Unlock()
}

func (t *timingFS) ReadFile(path string) ([]byte, error) {
	t0 := time.Now()
	b, err := t.FS.ReadFile(path)
	t.record(false, t0, len(b))
	return b, err
}

func (t *timingFS) Create(path string) (diskcache.File, error) {
	t0 := time.Now()
	f, err := t.FS.Create(path)
	t.record(true, t0, 0)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := t.FS.Rename(oldpath, newpath)
	t.record(true, t0, 0)
	return err
}

type timingFile struct {
	diskcache.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.record(true, t0, n)
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.record(true, t0, 0)
	return err
}

func (f *timingFile) Close() error {
	t0 := time.Now()
	err := f.File.Close()
	f.fs.record(true, t0, 0)
	return err
}

// walkResult is what the traced walk measured.
type walkResult struct {
	ok      bool
	wall    float64
	ledger  *ledger
	report  *pipeline.Report // the driver's cumulative report
	memHits []float64        // seconds per memory-tier program hit
	build   []float64
	simRun  []float64
	spans   []obs.Span
	fsOps   []fsOp
	workers int
	gcCPU   float64
	allocMB float64
}

// walker runs ccmbench's evaluation in-process with spans around every
// call into the layers.
type walker struct {
	cfg experiments.Config
	drv *pipeline.Driver
	sh  *obs.Shard
	res *walkResult
}

func (w *walker) span(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	w.sh.Record(name, "perfbench", t0, d)
	switch name {
	case "workload.build":
		w.res.build = append(w.res.build, secs(d))
	case "sim.run":
		w.res.simRun = append(w.res.simRun, secs(d))
	}
	return err
}

func (w *walker) build(f func() (*ir.Program, error)) (*ir.Program, error) {
	var p *ir.Program
	err := w.span("workload.build", func() error {
		var err error
		p, err = f()
		return err
	})
	return p, err
}

// compile mirrors experiments' compileWith for the suite measurements
// (which always compact), building the pipeline.Config from w.cfg field
// for field as compileWith does.
//
// This copy, like routines, programs, pipelineStrategy and countCCMOps,
// exists only because experiments offers no hook around its calls into
// the driver and sim.Run; delete them once it exposes such a span hook.
func (w *walker) compile(p *ir.Program, s experiments.Strategy, ccmBytes int64) (*pipeline.Report, error) {
	var rep *pipeline.Report
	memHits := w.drv.Cache().Stats().Memory.Hits
	ctx := w.cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	err := w.span("pipeline.compile", func() error {
		var err error
		rep, err = w.drv.CompileContext(ctx, p, pipeline.Config{
			Strategy:          pipelineStrategy(s),
			CCMBytes:          ccmBytes,
			IntRegs:           w.cfg.IntRegs,
			FloatRegs:         w.cfg.FloatRegs,
			DisableCompaction: false,
			VerifyPasses:      w.cfg.VerifyPasses,
			Strict:            w.cfg.Strict,
			FuncTimeout:       w.cfg.FuncTimeout,
			ReproDir:          w.cfg.ReproDir,
			DiffCheck:         w.cfg.DiffCheck,
		})
		return err
	})
	d := secs(time.Since(t0))
	if err == nil && rep.ProgramCacheHit && rep.Cache.Memory.Hits == memHits+1 {
		w.res.memHits = append(w.res.memHits, d)
	}
	return rep, err
}

func (w *walker) run(p *ir.Program, ccmBytes int64) (*sim.Stats, error) {
	var st *sim.Stats
	err := w.span("sim.run", func() error {
		var err error
		st, err = sim.Run(p, "main", sim.Config{MemCost: w.cfg.MemCost, CCMBytes: ccmBytes})
		return err
	})
	return st, err
}

func pipelineStrategy(s experiments.Strategy) pipeline.Strategy {
	switch s {
	case experiments.StrategyPostPass:
		return pipeline.PostPass
	case experiments.StrategyPostPassIPA:
		return pipeline.PostPassInterproc
	case experiments.StrategyIntegrated:
		return pipeline.Integrated
	}
	return pipeline.NoCCM
}

func countCCMOps(f *ir.Func) int {
	n := 0
	if f == nil {
		return 0
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op.IsCCMOp() {
				n++
			}
		}
	}
	return n
}

// routines is RunRoutineSuite with spans around each call.
func (w *walker) routines() ([]*experiments.RoutineResult, error) {
	var out []*experiments.RoutineResult
	for _, r := range workload.All() {
		rr := &experiments.RoutineResult{Name: r.Name, Family: r.Family,
			Strat: map[experiments.Key]experiments.CycPair{}, Promo: map[experiments.Key]int{}}
		p, err := w.build(r.Build)
		if err != nil {
			return nil, err
		}
		rep, err := w.compile(p, experiments.StrategyNone, 0)
		if err != nil {
			return nil, fmt.Errorf("routine %s: %w", r.Name, err)
		}
		fr := rep.PerFunc[r.Name]
		rr.SpillBefore, rr.SpillAfter, rr.Webs = fr.SpillBytesNaive, fr.SpillBytesCompacted, fr.SpillWebs
		st, err := w.run(p, 0)
		if err != nil {
			return nil, err
		}
		fs := st.PerFunc[r.Name]
		if fs == nil {
			return nil, fmt.Errorf("routine %s not executed", r.Name)
		}
		rr.Base = experiments.CycPair{Cycles: fs.Cycles, Mem: fs.MemOpCycles}
		for _, size := range w.cfg.CCMSizes {
			for _, s := range experiments.Strategies {
				p, err := w.build(r.Build)
				if err != nil {
					return nil, err
				}
				if _, err := w.compile(p, s, size); err != nil {
					return nil, fmt.Errorf("routine %s %v/%d: %w", r.Name, s, size, err)
				}
				promo := 0
				if s == experiments.StrategyPostPass || s == experiments.StrategyPostPassIPA {
					promo = countCCMOps(p.Func(r.Name))
				}
				st, err := w.run(p, size)
				if err != nil {
					return nil, err
				}
				fs := st.PerFunc[r.Name]
				if fs == nil {
					return nil, fmt.Errorf("routine %s not executed", r.Name)
				}
				k := experiments.Key{Strategy: s, CCMBytes: size}
				rr.Strat[k] = experiments.CycPair{Cycles: fs.Cycles, Mem: fs.MemOpCycles}
				rr.Promo[k] = promo
			}
		}
		out = append(out, rr)
	}
	return out, nil
}

// programs is RunProgramSuite with spans around each call.
func (w *walker) programs() ([]*experiments.ProgramResult, error) {
	var out []*experiments.ProgramResult
	for _, bp := range workload.Programs() {
		pr := &experiments.ProgramResult{Name: bp.Name, Strat: map[experiments.Key]experiments.CycPair{}}
		p, err := w.build(bp.Build)
		if err != nil {
			return nil, err
		}
		if _, err := w.compile(p, experiments.StrategyNone, 0); err != nil {
			return nil, fmt.Errorf("program %s: %w", bp.Name, err)
		}
		st, err := w.run(p, 0)
		if err != nil {
			return nil, err
		}
		pr.Base = experiments.CycPair{Cycles: st.Cycles, Mem: st.MemOpCycles}
		for _, size := range w.cfg.CCMSizes {
			for _, s := range experiments.Strategies {
				q, err := w.build(bp.Build)
				if err != nil {
					return nil, err
				}
				if _, err := w.compile(q, s, size); err != nil {
					return nil, fmt.Errorf("program %s %v/%d: %w", bp.Name, s, size, err)
				}
				st, err := w.run(q, size)
				if err != nil {
					return nil, err
				}
				pr.Strat[experiments.Key{Strategy: s, CCMBytes: size}] = experiments.CycPair{Cycles: st.Cycles, Mem: st.MemOpCycles}
			}
		}
		out = append(out, pr)
	}
	return out, nil
}

var gcMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readGC() (gcCPU, allocBytes float64) {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[1].Value.Uint64())
	}
	return gcCPU, allocBytes
}

// tracedWalk regenerates ccmbench's output in-process on cacheDir, with
// tracing on, and checks the text against the recorded tables — which
// checks every cycle count the walk's sim.Run calls produced.
func tracedWalk(e *env, cacheDir string) (*walkResult, error) {
	res := &walkResult{}
	tfs := &timingFS{FS: diskcache.OS()}
	tr := obs.NewTracer()
	drv := pipeline.New(pipeline.Options{CacheDir: cacheDir, DiskFS: tfs, Tracer: tr})
	if err := drv.DiskCacheErr(); err != nil {
		return nil, fmt.Errorf("traced walk: disk tier: %w", err)
	}
	res.workers = drv.Workers()
	cfg := experiments.Default()
	cfg.Driver = drv
	cfg.Strict = true
	cfg.DiffCheck = pipeline.DiffFinal
	w := &walker{cfg: cfg, drv: drv, sh: tr.NewShard(-1), res: res}
	outer := tr.NewShard(-2)
	anchor := time.Now()
	outer.Record("anchor", "perfbench", anchor, 0)

	gc0, alloc0 := readGC()
	t0 := time.Now()
	var out strings.Builder
	err := func() error {
		var m *experiments.MultiProcResult
		if err := w.span("experiments.multiproc", func() error {
			var err error
			m, err = experiments.MultiProcess(cfg, nil, 1024)
			return err
		}); err != nil {
			return err
		}
		out.WriteString(experiments.FormatMultiProc(m) + "\n")
		if e.quick {
			return nil
		}
		var rows []experiments.AblationRow
		if err := w.span("experiments.ablation", func() error {
			var err error
			rows, err = experiments.Ablation43(cfg, nil)
			return err
		}); err != nil {
			return err
		}
		out.WriteString(experiments.FormatAblation(rows) + "\n")
		rs, err := w.routines()
		if err != nil {
			return err
		}
		ps, err := w.programs()
		if err != nil {
			return err
		}
		sr := &experiments.SuiteResults{Config: cfg, Routines: rs, Programs: ps}
		for _, s := range []string{sr.FormatTable1(), sr.FormatTable2(512), sr.FormatTable3(512, 1024),
			sr.FormatTable4(), sr.FormatFigure(3, 512), sr.FormatFigure(4, 1024)} {
			out.WriteString(s + "\n")
		}
		return nil
	}()
	wall := time.Since(t0)
	outer.Record("walk", "perfbench", t0, wall)
	gc1, alloc1 := readGC()
	if err != nil {
		return nil, fmt.Errorf("traced walk: %w", err)
	}
	res.wall = secs(wall)
	res.gcCPU = gc1 - gc0
	res.allocMB = (alloc1 - alloc0) / (1 << 20)
	if err := checkTables(e, []byte(out.String())); err != nil {
		e.note("traced walk: %v", err)
	} else {
		res.ok = true
	}
	res.report = drv.Metrics()
	res.spans = tr.Spans()
	if d := tr.Dropped(); d > 0 {
		return nil, fmt.Errorf("traced walk: tracer dropped %d spans", d)
	}
	tfs.mu.Lock()
	res.fsOps = tfs.ops
	tfs.mu.Unlock()
	var anchorNanos int64
	for _, s := range res.spans {
		if s.TID == -2 && s.Name == "anchor" {
			anchorNanos = s.StartNanos
		}
	}
	res.ledger = sweep(res.spans, res.fsOps, anchor, anchorNanos)
	return res, nil
}

// fill writes the walk's per-layer metrics.
func (w *walkResult) fill(m *layerMetrics) {
	rep := w.report
	m.set("pipeline.mem_hit_us", median(w.memHits)*1e6, "us")
	var compileWall, stageBusy float64
	var oracle, diskGet float64
	compiles := 0
	for _, s := range w.spans {
		d := float64(s.DurNanos) / 1e9
		switch {
		case s.Name == "compile" && s.TID == 0:
			compileWall += d
			compiles++
		case s.Name == "front" || s.Name == "back":
			stageBusy += d
		case strings.HasPrefix(s.Name, "oracle:"):
			oracle += d
		case s.Name == "cache:disk":
			diskGet += d
		}
	}
	m.set("pipeline.compile_s", compileWall, "s")
	m.set("pipeline.compile_n", float64(compiles), "count")
	if compileWall > 0 && w.workers > 0 {
		m.set("pipeline.worker_util", stageBusy/(compileWall*float64(w.workers)), "frac")
	}
	for _, p := range rep.Passes {
		if _, ok := layerUnits["pass."+p.Name+"_s"]; ok {
			m.set("pass."+p.Name+"_s", float64(p.WallNanos)/1e9, "s")
			m.set("pass."+p.Name+"_n", float64(p.Runs), "count")
		}
		if p.Name == "optimize" || p.Name == "regalloc" {
			m.set("pass."+p.Name+".instrs_after", float64(p.InstrsAfter), "count")
		}
	}
	m.set("oracle.run_s", oracle, "s")
	m.set("oracle.run_n", float64(rep.DiffRuns), "count")
	m.set("sim.run_s", sum(w.simRun), "s")
	m.set("sim.run_n", float64(len(w.simRun)), "count")
	m.set("workload.build_s", sum(w.build), "s")
	var read, write, wbytes float64
	for _, op := range w.fsOps {
		if op.write {
			write += secs(op.dur)
			wbytes += float64(op.bytes)
		} else {
			read += secs(op.dur)
		}
	}
	m.set("cache.disk.read_s", read, "s")
	m.set("cache.disk.write_s", write, "s")
	m.set("cache.disk.get_s", diskGet, "s")
	m.set("codec.decode_s", diskGet-read, "s")
	c := rep.Cache
	m.set("cache.disk.hit_n", float64(c.Disk.Hits), "count")
	m.set("cache.disk.miss_n", float64(c.Disk.Misses), "count")
	m.set("cache.disk.write_n", float64(c.Disk.Writes), "count")
	m.set("cache.disk.write_bytes", wbytes, "bytes")
	m.set("cache.mem.hit_n", float64(c.Memory.Hits), "count")
	m.set("cache.mem.miss_n", float64(c.Memory.Misses), "count")
	m.set("go.gc_cpu_s", w.gcCPU, "s")
	m.set("go.alloc_mb", w.allocMB, "MB")
	w.ledger.fill(m)
}

func (w *walkResult) printLedger() {
	w.ledger.print("the harness's own loop between calls and garbage collection outside any span")
}

// sweep charges every instant of the walk to one ledger bucket. The main
// line is the harness's spans plus the driver's main-goroutine spans
// (tid 0); while the driver's compile span is innermost there, the
// instant goes to a disk write in progress, else is split evenly among
// the innermost spans running on the driver's pool workers (tid >= 1),
// else to the driver itself. A disk read inside a cache:disk span is
// charged to cache.disk.read and the rest of that span to codec.decode
// (decode plus integrity check). anchor is a wall-clock instant whose
// position on the tracer's timeline is anchorNanos; it places the
// filesystem calls on that timeline.
func sweep(spans []obs.Span, ops []fsOp, anchor time.Time, anchorNanos int64) *ledger {
	const (
		mainLine = -1
		fsLine   = -3
	)
	l := newLedger()
	type iv struct {
		name       string
		line       int
		start, end int64
		write      bool
	}
	var ivs []*iv
	var walkStart, walkEnd int64
	for _, s := range spans {
		switch {
		case s.TID == -2:
			if s.Name == "walk" {
				walkStart, walkEnd = s.StartNanos, s.StartNanos+s.DurNanos
			}
		case s.TID == -1 || s.TID == 0:
			ivs = append(ivs, &iv{name: s.Name, line: mainLine, start: s.StartNanos, end: s.StartNanos + s.DurNanos})
		default:
			ivs = append(ivs, &iv{name: s.Name, line: s.TID, start: s.StartNanos, end: s.StartNanos + s.DurNanos})
		}
	}
	for i := range ops {
		op := &ops[i]
		st := anchorNanos + int64(op.start.Sub(anchor))
		ivs = append(ivs, &iv{name: "fs", line: fsLine, start: st, end: st + int64(op.dur), write: op.write})
	}
	l.wall = float64(walkEnd-walkStart) / 1e9
	type ev struct {
		t     int64
		start bool
		iv    *iv
	}
	evs := make([]ev, 0, 2*len(ivs))
	for _, v := range ivs {
		evs = append(evs, ev{v.start, true, v}, ev{v.end, false, v})
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.start != b.start {
			return !a.start // ends first
		}
		if a.start {
			return a.iv.end > b.iv.end // outer span pushed first
		}
		return a.iv.start > b.iv.start // inner span popped first
	})
	stacks := map[int][]*iv{}
	var fsReads, fsWrites int
	charge := func(dt float64) {
		s := stacks[mainLine]
		if len(s) == 0 {
			l.add("unattributed", dt)
			return
		}
		m := s[len(s)-1]
		switch {
		case m.name == "cache:disk" && fsReads > 0:
			l.add("cache.disk.read", dt)
			return
		case m.name != "compile":
			l.add(bucketFor(m.name), dt)
			return
		case fsWrites > 0:
			l.add("cache.disk.write", dt)
			return
		}
		var ws []*iv
		for line, s := range stacks {
			if line >= 1 && len(s) > 0 {
				ws = append(ws, s[len(s)-1])
			}
		}
		if len(ws) == 0 {
			l.add("pipeline.driver", dt)
			return
		}
		for _, wv := range ws {
			b := bucketFor(wv.name)
			if wv.name == "cache:disk" && fsReads > 0 {
				b = "cache.disk.read"
			}
			l.add(b, dt/float64(len(ws)))
		}
	}
	prev := walkStart
	for _, e := range evs {
		t := min(max(e.t, walkStart), walkEnd)
		if t > prev {
			charge(float64(t-prev) / 1e9)
			prev = t
		}
		v := e.iv
		if v.line == fsLine {
			d := 1
			if !e.start {
				d = -1
			}
			if v.write {
				fsWrites += d
			} else {
				fsReads += d
			}
			continue
		}
		if e.start {
			stacks[v.line] = append(stacks[v.line], v)
			continue
		}
		s := stacks[v.line]
		for i := len(s) - 1; i >= 0; i-- {
			if s[i] == v {
				stacks[v.line] = append(s[:i], s[i+1:]...)
				break
			}
		}
	}
	if walkEnd > prev {
		charge(float64(walkEnd-prev) / 1e9)
	}
	return l
}

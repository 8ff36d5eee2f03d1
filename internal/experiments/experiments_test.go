package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccmem/internal/pipeline"
)

var (
	suiteOnce sync.Once
	suiteRes  *SuiteResults
	suiteRep  *pipeline.Report
	suiteErr  error
)

// benchConfig is the configuration ccmbench measures with (strict, the
// differential oracle on) on a private driver of the given width.
func benchConfig(workers int) Config {
	cfg := Default()
	cfg.Strict = true
	cfg.DiffCheck = pipeline.DiffFinal
	cfg.Driver = pipeline.New(pipeline.Options{Workers: workers})
	return cfg
}

// suite runs the full measurement once, as ccmbench does, with eight
// measurements at once, and shares it and its driver's cumulative
// report across tests.
func suite(t *testing.T) *SuiteResults {
	t.Helper()
	suiteOnce.Do(func() {
		cfg := benchConfig(8)
		suiteRes, suiteErr = RunSuite(cfg)
		suiteRep = cfg.Driver.Metrics()
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteRes
}

func TestSuiteShape(t *testing.T) {
	res := suite(t)
	if len(res.Routines) < 40 {
		t.Fatalf("only %d routines", len(res.Routines))
	}
	if len(res.Programs) < 8 {
		t.Fatalf("only %d programs", len(res.Programs))
	}
	spillers := 0
	for _, r := range res.Routines {
		if r.Spills() {
			spillers++
		}
	}
	// The paper: 59 of 122 routines required spill code (~48%).
	if spillers < len(res.Routines)/3 {
		t.Fatalf("only %d of %d routines spill", spillers, len(res.Routines))
	}
}

func TestTable1Invariants(t *testing.T) {
	res := suite(t)
	rows, total := res.Table1()
	if len(rows) < 8 {
		t.Fatalf("only %d compacted routines", len(rows))
	}
	for _, r := range rows {
		if r.After >= r.Before || r.After <= 0 {
			t.Errorf("%s: %d -> %d not a strict improvement", r.Name, r.Before, r.After)
		}
		if r.Before%8 != 0 || r.After%8 != 0 {
			t.Errorf("%s: unaligned byte counts", r.Name)
		}
	}
	ratio := total.Ratio()
	// Paper total: 0.68. Shape check: meaningful overall compaction.
	if ratio >= 0.9 || ratio <= 0.05 {
		t.Fatalf("total compaction ratio %.2f out of plausible range", ratio)
	}
	if !strings.Contains(res.FormatTable1(), "TOTAL") {
		t.Fatal("formatted table lacks TOTAL row")
	}
}

func TestTable2Invariants(t *testing.T) {
	res := suite(t)
	rows := res.Table2(512)
	if len(rows) < 15 {
		t.Fatalf("only %d spilling routines in Table 2", len(rows))
	}
	improvedSomewhere := 0
	for _, r := range rows {
		for st, pair := range r.Ratios {
			cyc, mem := pair[0], pair[1]
			if cyc > 1.0005 || mem > 1.0005 {
				t.Errorf("%s %v: ratio above 1 (%.3f / %.3f) — CCM made it slower", r.Name, st, cyc, mem)
			}
			if cyc <= 0 || mem <= 0 {
				t.Errorf("%s %v: nonpositive ratio", r.Name, st)
			}
			// Memory-op cycles improve at least as much as total cycles
			// (promotion only touches memory operations).
			if mem > cyc+0.0005 {
				t.Errorf("%s %v: mem ratio %.3f worse than total %.3f", r.Name, st, mem, cyc)
			}
			if cyc < 0.995 {
				improvedSomewhere++
			}
		}
	}
	if improvedSomewhere == 0 {
		t.Fatal("no routine improved at all")
	}
}

func TestInterproceduralAtLeastIntra(t *testing.T) {
	res := suite(t)
	for _, size := range res.Config.CCMSizes {
		for _, r := range res.Routines {
			if !r.Spills() {
				continue
			}
			intra, _ := r.Strat[Key{StrategyPostPass, size}].Ratio(r.Base)
			ipa, _ := r.Strat[Key{StrategyPostPassIPA, size}].Ratio(r.Base)
			if ipa > intra+0.0005 {
				t.Errorf("%s @%dB: call-graph post-pass (%.3f) worse than intra (%.3f)",
					r.Name, size, ipa, intra)
			}
		}
	}
}

func TestLargerCCMNeverHurts(t *testing.T) {
	res := suite(t)
	for _, r := range res.Routines {
		if !r.Spills() {
			continue
		}
		for _, st := range Strategies {
			small, _ := r.Strat[Key{st, 512}].Ratio(r.Base)
			large, _ := r.Strat[Key{st, 1024}].Ratio(r.Base)
			if large > small+0.0005 {
				t.Errorf("%s %v: 1024B (%.3f) worse than 512B (%.3f)", r.Name, st, large, small)
			}
		}
	}
}

func TestTable3OnlyImprovements(t *testing.T) {
	res := suite(t)
	rows := res.Table3(512, 1024)
	for _, r := range rows {
		improved := false
		for _, st := range Strategies {
			if r.Large[st][0] < r.Small[st][0]-1e-4 {
				improved = true
			}
		}
		if !improved {
			t.Errorf("%s in Table 3 without improvement", r.Name)
		}
	}
	// fpppp is engineered to overflow 512 bytes: it must appear.
	found := false
	for _, r := range rows {
		if r.Name == "fpppp" {
			found = true
		}
	}
	if !found {
		t.Error("fpppp missing from Table 3")
	}
}

func TestTable4ConsistentWithRows(t *testing.T) {
	res := suite(t)
	t4 := res.Table4()
	for _, st := range Strategies {
		for _, size := range res.Config.CCMSizes {
			cell := t4[Key{st, size}]
			if cell.TotalPct < 0 || cell.TotalPct > 60 {
				t.Errorf("%v @%d: total reduction %.1f%% implausible", st, size, cell.TotalPct)
			}
			if cell.MemPct < cell.TotalPct {
				t.Errorf("%v @%d: memory reduction below total", st, size)
			}
		}
	}
	// The paper's ordering: the call-graph post-pass dominates.
	for _, size := range res.Config.CCMSizes {
		if t4[Key{StrategyPostPassIPA, size}].TotalPct < t4[Key{StrategyPostPass, size}].TotalPct-1e-9 {
			t.Errorf("@%d: interprocedural below intra on weighted average", size)
		}
	}
}

func TestFiguresImprovedSubset(t *testing.T) {
	res := suite(t)
	for figNum, size := range map[int]int64{3: 512, 4: 1024} {
		rows := res.Figure(size)
		if len(rows) == 0 {
			t.Fatalf("figure %d empty", figNum)
		}
		if len(rows) > len(res.Programs) {
			t.Fatalf("figure %d larger than program set", figNum)
		}
		for _, r := range rows {
			best := 1.0
			for _, st := range Strategies {
				if v := r.Ratios[st][0]; v < best {
					best = v
				}
			}
			if best >= 0.995 {
				t.Errorf("figure %d: %s shown without improvement (best %.3f)", figNum, r.Name, best)
			}
		}
		out := res.FormatFigure(figNum, size)
		if !strings.Contains(out, "programs improved") {
			t.Fatalf("figure %d format missing summary", figNum)
		}
	}
}

// TestDeterminism: the routine suite (the farm's unit of work) prints
// the same tables whether its routines are measured one at a time or
// eight at once.
func TestDeterminism(t *testing.T) {
	run := func(workers int) *SuiteResults {
		cfg := Default()
		cfg.CCMSizes = []int64{512}
		cfg.Driver = pipeline.New(pipeline.Options{Workers: workers})
		res, err := RunRoutineSuite(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	a, b := run(1), run(8)
	if a.FormatTable2(512) != b.FormatTable2(512) {
		t.Fatal("workers 1 and 8 produced different Table 2")
	}
	if a.FormatTable1() != b.FormatTable1() {
		t.Fatal("workers 1 and 8 produced different Table 1")
	}
}

// TestSuiteAcrossWorkerCounts compares the shared eight-worker suite
// with a one-worker run: the tables and figures must be byte-identical,
// and so must the driver's compile and cache accounting, since every
// suite measurement compiles a distinct program.
func TestSuiteAcrossWorkerCounts(t *testing.T) {
	par := suite(t)
	parRep := suiteRep
	cfg := benchConfig(1)
	serial, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serialRep := cfg.Driver.Metrics()
	text := func(res *SuiteResults) map[string]string {
		return map[string]string{
			"Table 1":  res.FormatTable1(),
			"Table 2":  res.FormatTable2(512),
			"Table 3":  res.FormatTable3(512, 1024),
			"Table 4":  res.FormatTable4(),
			"Figure 3": res.FormatFigure(3, 512),
			"Figure 4": res.FormatFigure(4, 1024),
		}
	}
	want, got := text(serial), text(par)
	for name := range want {
		if got[name] != want[name] {
			t.Errorf("%s differs between workers 1 and 8:\n%s\nvs\n%s", name, want[name], got[name])
		}
	}
	if serialRep.Compiles != parRep.Compiles || serialRep.ProgramHits != parRep.ProgramHits ||
		serialRep.DiffRuns != parRep.DiffRuns || !reflect.DeepEqual(serialRep.Cache, parRep.Cache) {
		t.Errorf("accounting differs between workers 1 and 8:\ncompiles %d/%d, program hits %d/%d, diff runs %d/%d\ncache %+v\nvs    %+v",
			serialRep.Compiles, parRep.Compiles, serialRep.ProgramHits, parRep.ProgramHits,
			serialRep.DiffRuns, parRep.DiffRuns, serialRep.Cache, parRep.Cache)
	}
	if serialRep.Compiles == 0 || serialRep.Cache.Memory.Misses == 0 {
		t.Fatalf("no compiles counted: %+v", serialRep.Cache)
	}
}

// TestSuiteCancelled: a cancelled context stops the suite with an error
// that wraps context.Canceled (ccmbench reports it as "interrupted").
func TestSuiteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Default()
	cfg.Ctx = ctx
	for name, run := range map[string]func(Config) (*SuiteResults, error){
		"RunSuite": RunSuite, "RunRoutineSuite": RunRoutineSuite, "RunProgramSuite": RunProgramSuite,
	} {
		if _, err := run(cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestFanOutLowestIndexError: with items 3 and 7 failing under random
// delays, fanOut always returns item 3's error — the one a serial loop
// stops at — and the items it ran are exactly a prefix of the index
// range, each run once and to completion.
func TestFanOutLowestIndexError(t *testing.T) {
	const n = 24
	for round := 0; round < 200; round++ {
		workers := 1 + round%8
		rng := rand.New(rand.NewSource(int64(round)))
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		var started, finished [n]atomic.Int32
		err := fanOut(context.Background(), workers, n, func(i int) error {
			started[i].Add(1)
			defer finished[i].Add(1)
			time.Sleep(delays[i])
			if i == 3 || i == 7 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("round %d (workers %d): err = %v, want item 3's", round, workers, err)
		}
		ran := 0
		for i := 0; i < n; i++ {
			s, f := started[i].Load(), finished[i].Load()
			if s > 1 || s != f {
				t.Fatalf("round %d: item %d started %d times, finished %d", round, i, s, f)
			}
			if s == 1 {
				if ran != i {
					t.Fatalf("round %d: item %d ran but item %d did not", round, i, ran)
				}
				ran++
			}
		}
		if workers == 1 && ran != 4 {
			t.Fatalf("round %d: one worker ran %d items past the failure at 3", round, ran-4)
		}
	}
}

// TestItemQueueStopsAfterFailure: once a failure is recorded, or the
// context is done, no further index is handed out.
func TestItemQueueStopsAfterFailure(t *testing.T) {
	q := &itemQueue{ctx: context.Background(), errs: make([]error, 10)}
	for want := 0; want < 3; want++ {
		if i, ok := q.claim(); !ok || i != want {
			t.Fatalf("claim = %d, %v; want %d", i, ok, want)
		}
	}
	q.done(0, nil)
	q.done(2, errors.New("two"))
	if i, ok := q.claim(); ok {
		t.Fatalf("claimed %d after a failure", i)
	}
	q.done(1, errors.New("one"))
	if err := q.err(); err == nil || err.Error() != "one" {
		t.Fatalf("err = %v, want the lowest index's", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	q = &itemQueue{ctx: ctx, errs: make([]error, 10)}
	if _, ok := q.claim(); !ok {
		t.Fatal("first claim refused")
	}
	cancel()
	if i, ok := q.claim(); ok {
		t.Fatalf("claimed %d after cancellation", i)
	}
	if err := q.err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAblationInvariants(t *testing.T) {
	rows, err := Ablation43(Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationRoutines) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CCM >= 1.02 {
			t.Errorf("%s: CCM ratio %.3f — promotion hurt under a cache", r.Name, r.CCM)
		}
		if r.VictimCache > 1.0005 {
			t.Errorf("%s: victim cache made things worse (%.3f)", r.Name, r.VictimCache)
		}
		if r.MissBase < 0 || r.MissBase > 1 || r.MissCCM < 0 || r.MissCCM > 1 {
			t.Errorf("%s: miss rates out of range", r.Name)
		}
	}
	if _, err := Ablation43(Default(), []string{"nosuch"}); err == nil {
		t.Fatal("unknown routine accepted")
	}
	if out := FormatAblation(rows); !strings.Contains(out, "CCM") {
		t.Fatal("format broken")
	}
}

func TestFormatTablesRenderEverything(t *testing.T) {
	res := suite(t)
	for name, text := range map[string]string{
		"t1": res.FormatTable1(),
		"t2": res.FormatTable2(512),
		"t3": res.FormatTable3(512, 1024),
		"t4": res.FormatTable4(),
		"f3": res.FormatFigure(3, 512),
		"f4": res.FormatFigure(4, 1024),
	} {
		if len(text) < 40 {
			t.Errorf("%s suspiciously short:\n%s", name, text)
		}
	}
}

func TestMultiProcess(t *testing.T) {
	m, err := MultiProcess(Default(), nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partition*int64(len(m.Processes)) > m.CCMBytes {
		t.Fatal("partitions exceed the CCM")
	}
	if m.CopyCycles <= 0 || m.PartitionCycles <= 0 {
		t.Fatal("no cycles measured")
	}
	// Smaller per-process CCM can only slow processes down (or tie).
	if m.PartitionCycles < m.CopyCycles {
		t.Fatalf("partitioned run faster than whole-CCM run: %d < %d",
			m.PartitionCycles, m.CopyCycles)
	}
	if m.CopyPerSwitch <= 0 {
		t.Fatal("no switch cost for spill-heavy processes")
	}
	// At the break-even point, partitioning is at least as good.
	if m.TotalCopy(m.BreakEvenSwitches) < m.PartitionCycles {
		t.Fatalf("break-even miscomputed: copy(%d)=%d < partition=%d",
			m.BreakEvenSwitches, m.TotalCopy(m.BreakEvenSwitches), m.PartitionCycles)
	}
	if out := FormatMultiProc(m); !strings.Contains(out, "context switches") {
		t.Fatal("format broken")
	}
	t.Logf("\n%s", FormatMultiProc(m))

	if _, err := MultiProcess(Default(), []string{"nosuch"}, 1024); err == nil {
		t.Fatal("unknown routine accepted")
	}
	if _, err := MultiProcess(Default(), nil, 8); err == nil {
		t.Fatal("tiny CCM accepted")
	}
}

func TestCycPairRatio(t *testing.T) {
	base := CycPair{Cycles: 200, Mem: 100}
	c, m := CycPair{Cycles: 100, Mem: 40}.Ratio(base)
	if c != 0.5 || m != 0.4 {
		t.Fatalf("ratios %v %v", c, m)
	}
	c, m = CycPair{}.Ratio(CycPair{})
	if c != 1 || m != 1 {
		t.Fatal("zero base must yield 1")
	}
}

func TestStrategyStrings(t *testing.T) {
	names := map[Strategy]string{
		StrategyNone:        "Without CCM",
		StrategyPostPass:    "Post-Pass",
		StrategyPostPassIPA: "Post-Pass w/ Call Graph",
		StrategyIntegrated:  "Integrated",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}

func TestProgramResultImproved(t *testing.T) {
	p := &ProgramResult{
		Base:  CycPair{Cycles: 1000, Mem: 500},
		Strat: map[Key]CycPair{{StrategyPostPass, 512}: {Cycles: 900, Mem: 400}},
	}
	if !p.Improved(512) {
		t.Fatal("10% improvement not detected")
	}
	p.Strat[Key{StrategyPostPass, 512}] = CycPair{Cycles: 999, Mem: 499}
	if p.Improved(512) {
		t.Fatal("0.1% counted as improvement")
	}
}

func TestByFamily(t *testing.T) {
	res := suite(t)
	rows := res.ByFamily(512)
	if len(rows) < 5 {
		t.Fatalf("only %d families", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Family] {
			t.Fatalf("family %s duplicated", r.Family)
		}
		seen[r.Family] = true
		for _, st := range Strategies {
			if r.Ratio[st] <= 0 || r.Ratio[st] > 1.0005 {
				t.Errorf("family %s %v ratio %.3f out of range", r.Family, st, r.Ratio[st])
			}
		}
	}
	for _, fam := range []string{"fft", "block", "applu", "linalg", "stencil", "dsp"} {
		if !seen[fam] {
			t.Errorf("family %s missing (no spillers?)", fam)
		}
	}
	if out := res.FormatByFamily(512); !strings.Contains(out, "Family") {
		t.Fatal("format broken")
	}
}

func TestWriteReport(t *testing.T) {
	cfg := Default()
	var sb strings.Builder
	if err := WriteReport(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 3", "Figure 4", "ablation", "multi-process", "Per-family",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("report suspiciously short (%d bytes)", len(out))
	}
}

package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildBinaries builds the programs under test once per test binary.
func buildBinaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/ccmbench", "./cmd/ccmd", "./cmd/ccmcached")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return dir
}

func quickEnv(t *testing.T, bin string) *env {
	return &env{root: "..", bin: bin, work: t.TempDir(), seed: 3, seconds: 2, quick: true}
}

func TestTablesGateRejectsFlippedByte(t *testing.T) {
	e := &env{}
	if err := checkTables(e, expectedTables); err != nil {
		t.Fatalf("recorded text rejected: %v", err)
	}
	bad := append([]byte(nil), expectedTables...)
	bad[len(bad)/2] ^= 1
	if checkTables(e, bad) == nil {
		t.Fatal("gate accepted a flipped byte")
	}
}

func TestTablesQuick(t *testing.T) {
	bin := buildBinaries(t)
	for _, warm := range []bool{false, true} {
		e := quickEnv(t, bin)
		res, err := runTables(e, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("warm=%v: %+v, notes %v", warm, res, e.notes)
		}
		for _, m := range []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ok_frac"} {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("warm=%v: metric %s = %v, want > 0", warm, m, res.Metrics[m].Value)
			}
		}
		// Mutation: one flipped output byte must fail the gate.
		dir := filepath.Join(e.work, "mut")
		if warm {
			dir = filepath.Join(e.work, "setup-0") // filled by the run's set-up
		}
		r := runCCMBench(e, warm, dir)
		if !r.ok {
			t.Fatalf("warm=%v: clean rerun failed: %v", warm, e.notes)
		}
		r.stdout[len(r.stdout)/3] ^= 0x20
		if checkTables(e, r.stdout) == nil {
			t.Fatalf("warm=%v: gate accepted a flipped output byte", warm)
		}
	}
}

func TestTablesTracedLedgerAddsUp(t *testing.T) {
	bin := buildBinaries(t)
	e := quickEnv(t, bin)
	e.trace = true
	res, err := runTables(e, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed: %v", e.notes)
	}
	for n := range layerUnits {
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("per-layer metric %s missing", n)
		}
	}
	wall := res.Metrics["ledger.wall_s"].Value
	total := res.Metrics["unattributed_s"].Value
	for _, b := range ledgerBuckets {
		total += res.Metrics["ledger."+b+"_s"].Value
	}
	if wall <= 0 || total < wall*0.999 || total > wall*1.001 {
		t.Fatalf("ledger sums to %v s, wall %v s", total, wall)
	}
	if res.Metrics["pipeline.compile_n"].Value == 0 || res.Metrics["pass.regalloc_s"].Value == 0 {
		t.Fatalf("walk recorded no compiles: %+v", res.Metrics)
	}
}

func TestServeQuickGateAndCrossCheck(t *testing.T) {
	bin := buildBinaries(t)
	e := quickEnv(t, bin)
	run, _, err := window(e, filepath.Join(e.work, "w"), e.seed, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if failed, why := checkOutputs(run); failed != 0 {
		t.Fatalf("gate failed on a clean run: %v", why)
	}
	if why := crossCheck(run); len(why) != 0 {
		t.Fatalf("cross-check failed on a clean run: %v", why)
	}

	// Mutation: one flipped byte in one compiled output.
	var victim *outcome
	for _, o := range run.outs {
		if !o.req.run && o.err == nil {
			victim = o
			break
		}
	}
	if victim == nil {
		t.Fatal("no compile responses")
	}
	saved := victim.output
	b := []byte(saved)
	b[len(b)/2] ^= 1
	victim.output = string(b)
	if failed, _ := checkOutputs(run); failed == 0 {
		t.Fatal("gate accepted a flipped output byte")
	}
	victim.output = saved

	// Mutation: each request relabelled to every other tier.
	tiers := []string{tierMem, tierDisk, tierRemote, tierMiss}
	n := 0
	for _, o := range run.outs {
		if o.req.run || o.err != nil {
			continue
		}
		orig := o.tier
		for _, tr := range tiers {
			if tr == orig {
				continue
			}
			o.tier = tr
			if why := crossCheck(run); len(why) == 0 {
				t.Fatalf("cross-check accepted a request relabelled %s -> %s", orig, tr)
			}
			n++
		}
		o.tier = orig
		if n > 60 {
			break
		}
	}
}

func TestServeQuickTraced(t *testing.T) {
	bin := buildBinaries(t)
	e := quickEnv(t, bin)
	e.trace = true
	res, err := runServe(e)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced serve run failed: %v", e.notes)
	}
	if len(res.Metrics) != len(layerUnits) {
		t.Fatalf("traced run printed %d metrics, want the %d per-layer metrics", len(res.Metrics), len(layerUnits))
	}
	if res.Metrics["cache.remote.get_ms"].Value <= 0 {
		t.Fatalf("proxy timed no remote reads: %+v", res.Metrics)
	}
}

// TestBenchmarkSpecMatches keeps BENCHMARK.json and the harness in step:
// every per-layer metric the traced runs print is declared with its unit,
// and the untraced runs print exactly the declared end-to-end metrics.
func TestBenchmarkSpecMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the harness prints %d", len(spec.PerLayer), len(layerUnits))
	}
	for _, m := range spec.PerLayer {
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s (%s) not printed with that unit", m.Name, m.Unit)
		}
	}
	want := map[string]string{"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
	if len(spec.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the harness prints %d", len(spec.EndToEnd), len(want))
	}
	for _, m := range spec.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s (%s) not printed with that unit", m.Name, m.Unit)
		}
	}
}

// TestPoolSplitAndBalance checks newPool's two guarantees: every program
// has one oracle-checked pair in each part of the split, and the
// popularity order offers a drawn request's expected program size within
// sizeTolerance of the pool's mean.
func TestPoolSplitAndBalance(t *testing.T) {
	uni, err := universe()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		pl := newPool(rand.New(rand.NewSource(seed)), uni, fullPool)
		parts := map[string]map[string]int{}
		mean, expect := 0.0, 0.0
		for k, p := range pl.pairs {
			if p.cfg.Diff {
				if parts[p.prog.ID] == nil {
					parts[p.prog.ID] = map[string]int{}
				}
				parts[p.prog.ID][p.part]++
			} else if p.part != tierMiss {
				t.Fatalf("seed %d: oracle-free pair %s is pre-warmed", seed, p.key())
			}
			mean += float64(len(p.prog.Text)) / float64(len(pl.pairs))
			w := pl.cdf[k]
			if k > 0 {
				w -= pl.cdf[k-1]
			}
			expect += w * float64(len(p.prog.Text))
		}
		if len(parts) != fullPool.routines+fullPool.generated {
			t.Fatalf("seed %d: %d programs in the pool", seed, len(parts))
		}
		for id, c := range parts {
			if c[tierDisk] != 1 || c[tierRemote] != 1 || c[tierMiss] != 1 {
				t.Fatalf("seed %d: program %s split %v", seed, id, c)
			}
		}
		if math.Abs(expect/mean-1) > sizeTolerance {
			t.Fatalf("seed %d: expected request size %.0f, pool mean %.0f", seed, expect, mean)
		}
	}
}

package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ccmem/internal/pipeline"
)

// expectedTables is ccmbench's full stdout recorded at a trusted commit.
// Every tables run must reproduce it byte for byte.
//
//go:embed expected/tables.txt
var expectedTables []byte

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// coldSetupReps is how many times tables-cold repeats its set-up of a
// few milliseconds.
const coldSetupReps = 25

// tablesArgs is the ccmbench command line under test. Quick mode (the
// benchmark's own tests) runs only the §2.1 section, whose text is the
// head of the full output.
func tablesArgs(e *env, dir string) []string {
	args := []string{"-cache-dir", dir, "-json"}
	if e.quick {
		args = append(args, "-multiproc")
	}
	return args
}

// checkTables is the tables correctness gate: the run exited 0 and its
// stdout equals the recorded text (in quick mode, the recorded text's
// first section).
func checkTables(e *env, stdout []byte) error {
	want := expectedTables
	if e.quick {
		i := bytes.Index(want, []byte("\n\n"))
		if i < 0 {
			return fmt.Errorf("expected tables text has no section break")
		}
		want = want[:i+2]
	}
	if !bytes.Equal(stdout, want) {
		return fmt.Errorf("ccmbench stdout differs from the recorded tables (%d bytes vs %d expected, first difference at byte %d)",
			len(stdout), len(want), firstDiff(stdout, want))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// checkTablesTiers checks the cumulative report ccmbench prints with
// -json: a cold run never reads the disk tier, and a warm run serves
// every memory miss from disk.
func checkTablesTiers(warm bool, rep *pipeline.Report) error {
	c := rep.Cache
	if rep.Compiles == 0 {
		return fmt.Errorf("ccmbench reported no compiles")
	}
	if warm {
		if c.Disk.Misses != 0 || c.Disk.Hits != c.Memory.Misses || rep.ProgramHits != rep.Compiles {
			return fmt.Errorf("warm run was not all cache hits: %d compiles, %d program hits, memory misses %d, disk hits %d, disk misses %d",
				rep.Compiles, rep.ProgramHits, c.Memory.Misses, c.Disk.Hits, c.Disk.Misses)
		}
		return nil
	}
	if c.Disk.Hits != 0 || c.Disk.Writes != c.Disk.Misses {
		return fmt.Errorf("cold run read the disk tier or skipped writes: disk hits %d, misses %d, writes %d",
			c.Disk.Hits, c.Disk.Misses, c.Disk.Writes)
	}
	return nil
}

// tablesRun is one ccmbench invocation and its verdict.
type tablesRun struct {
	runResult
	report *pipeline.Report
	ok     bool
}

func runCCMBench(e *env, warm bool, dir string) tablesRun {
	r := tablesRun{runResult: runProgram(context.Background(), filepath.Join(e.bin, "ccmbench"), tablesArgs(e, dir)...)}
	if r.err != nil {
		e.note("ccmbench failed: %v", r.err)
		return r
	}
	if err := checkTables(e, r.stdout); err != nil {
		e.note("%v", err)
		return r
	}
	r.report = &pipeline.Report{}
	if err := json.Unmarshal(r.stderr, r.report); err != nil {
		e.note("ccmbench -json report: %v", err)
		return r
	}
	if err := checkTablesTiers(warm, r.report); err != nil {
		e.note("%v", err)
		return r
	}
	r.ok = true
	return r
}

// runTables runs tables-cold (warm=false) or tables-warm (warm=true).
func runTables(e *env, warm bool) (*result, error) {
	res := &result{}
	var attempted, failed int64
	count := func(r tablesRun) {
		attempted++
		if !r.ok {
			failed++
		}
	}

	// Set-up. Cold: an empty cache directory plus one start of the binary
	// under test (process start and package initialisation), a few
	// milliseconds, so it is repeated coldSetupReps times for a steady
	// median. Warm: one full cold run that fills the directory the
	// measured runs read; it is a whole evaluation, so it runs once.
	reps := coldSetupReps
	if warm || e.trace || e.quick {
		reps = 1
	}
	var setups []float64
	var dir string
	for i := 0; i < reps; i++ {
		dir = filepath.Join(e.work, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if warm {
			r := runCCMBench(e, false, dir)
			count(r)
		} else {
			r := runProgram(context.Background(), filepath.Join(e.bin, "ccmbench"), "-version")
			if r.err != nil {
				return nil, r.err
			}
		}
		setups = append(setups, secs(time.Since(t0)))
		if i+1 < reps {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}

	if e.trace {
		return runTablesTraced(e, warm, dir, res, attempted, failed)
	}

	// Measured runs: whole ccmbench invocations, as many as fit in the
	// window (at least one); the next one starts only if it is expected
	// to end inside the window.
	var walls, cpus, rss []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds()+walls[len(walls)-1] <= e.seconds; i++ {
		runDir := dir
		if !warm {
			runDir = filepath.Join(e.work, fmt.Sprintf("cold-%d", i))
		}
		r := runCCMBench(e, warm, runDir)
		count(r)
		walls = append(walls, secs(r.wall))
		cpus = append(cpus, secs(r.cpu))
		rss = append(rss, r.rssMB)
		if !warm {
			if err := os.RemoveAll(runDir); err != nil {
				return nil, err
			}
		}
	}
	fmt.Printf("runs: %d ccmbench invocations, walls %v\n", len(walls), walls)
	res.set("setup_s", median(setups), "s")
	res.set("wall_s", median(walls), "s")
	res.set("cpu_s", median(cpus), "s")
	res.set("peak_rss_mb", median(rss), "MB")
	res.finish(attempted, failed, true, nil)
	return res, nil
}

// runTablesTraced is the --trace 1 run: one untraced ccmbench invocation
// (the baseline for trace.overhead_s) and then the traced in-process
// walk of the same evaluation.
func runTablesTraced(e *env, warm bool, dir string, res *result, attempted, failed int64) (*result, error) {
	runDir := dir
	if !warm {
		runDir = filepath.Join(e.work, "cold-untraced")
	}
	r := runCCMBench(e, warm, runDir)
	attempted++
	if !r.ok {
		failed++
	}
	walkDir := dir
	if !warm {
		walkDir = filepath.Join(e.work, "cold-traced")
	}
	w, err := tracedWalk(e, walkDir)
	if err != nil {
		return nil, err
	}
	attempted++
	if !w.ok {
		failed++
	}
	layers := newLayerMetrics()
	w.fill(layers)
	layers.set("trace.overhead_s", w.wall-secs(r.wall), "s")
	res.finish(attempted, failed, true, layers)
	w.printLedger()
	return res, nil
}

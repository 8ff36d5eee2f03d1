package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"

	"ccmem/internal/pipeline"
	"ccmem/internal/workload"
)

// TestSelectedSectionMatchesFullRun: -table N and -figure N print
// exactly their section of the full run's output, while measuring only
// the suite that section reads (the routines for a table, the programs
// for a figure), as the compile counts of their -json reports show.
func TestSelectedSectionMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping ccmbench e2e in -short mode")
	}
	benchBin := filepath.Join(t.TempDir(), "ccmbench")
	build := exec.Command("go", "build", "-o", benchBin, "./cmd/ccmbench")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ccmbench: %v\n%s", err, out)
	}
	run := func(args ...string) ([]byte, *pipeline.Report) {
		t.Helper()
		cmd := exec.Command(benchBin, append(args, "-json")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ccmbench %v: %v\n%s", args, err, stderr.Bytes())
		}
		var rep pipeline.Report
		if err := json.Unmarshal(stderr.Bytes(), &rep); err != nil {
			t.Fatalf("ccmbench %v: -json report: %v", args, err)
		}
		return out, &rep
	}

	full, _ := run()
	// Each variant is one compile: the baseline plus 3 strategies at 2
	// CCM sizes.
	const variants = 1 + 3*2
	for _, c := range []struct {
		flag, n  string
		compiles int
	}{
		{"-table", "2", len(workload.All()) * variants},
		{"-figure", "4", len(workload.Programs()) * variants},
	} {
		out, rep := run(c.flag, c.n)
		if len(out) < 40 || !bytes.Contains(full, out) {
			t.Errorf("ccmbench %s %s: output is not a section of the full run:\n%s", c.flag, c.n, out)
		}
		if rep.Compiles != int64(c.compiles) {
			t.Errorf("ccmbench %s %s: %d compiles, want %d (its own suite only)", c.flag, c.n, rep.Compiles, c.compiles)
		}
	}
}

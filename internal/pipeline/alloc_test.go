package pipeline

import (
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/workload"
)

// TestAllocGuardProgramHit pins the clone-free cache-hit contract: a
// program-tier memory hit hands out the frozen artifact functions by
// reference, so its allocation count is a small constant (hash + report
// plumbing) no matter how large the program is. Input programs are
// cloned outside the measured region, so the measurement sees only the
// hit path itself; deep-cloning the artifact on that path costs a
// program-sized multiple of the budget and trips the guard immediately.
func TestAllocGuardProgramHit(t *testing.T) {
	p0 := workload.RandomProgram(31)
	d := New(Options{})
	cfg := detConfig(PostPassInterproc)
	mustCompile(t, d, p0.Clone(), cfg) // prime the program tier

	const runs = 10
	clones := make([]*ir.Program, 0, runs+2)
	for i := 0; i < runs+2; i++ { // AllocsPerRun adds one warm-up call
		clones = append(clones, p0.Clone())
	}
	cloneCost := testing.AllocsPerRun(5, func() { _ = p0.Clone() })

	next := 0
	hitCost := testing.AllocsPerRun(runs, func() {
		rep, err := d.Compile(clones[next], cfg)
		next++
		if err != nil {
			t.Fatal(err)
		}
		if !rep.ProgramCacheHit {
			t.Fatal("compile was not a program-tier hit")
		}
	})
	t.Logf("program hit: %.0f allocs/op (one deep clone alone: %.0f)", hitCost, cloneCost)
	if hitCost >= cloneCost {
		t.Errorf("program hit allocates %.0f/op, at least one deep clone's worth (%.0f) — hits are no longer clone-free", hitCost, cloneCost)
	}
	// Absolute ceiling with headroom over the measured 10: the program
	// key is one presized buffer hashed in one call. Hashing field by
	// field into a streaming SHA-256 measured 59 and trips it. The clone
	// this guard excludes grows with program size, so the fixed ceiling
	// stays discriminating on any workload this large.
	const ceiling = 30
	if hitCost > ceiling {
		t.Errorf("program hit allocates %.0f/op, over the %d ceiling", hitCost, ceiling)
	}
}

package sim_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/oracle"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// outcome renders everything observable about one sim.Run and one
// oracle.Check of a program, for comparing concurrent runs to serial.
func outcome(p *ir.Program, stackWords int) string {
	st, err := sim.Run(p, "main", sim.Config{CCMBytes: 512, StackWords: stackWords})
	s := fmt.Sprintf("err=%v", err)
	if st != nil {
		s += fmt.Sprintf(" instrs=%d cycles=%d memop=%d main=%d ret=%v/%v out=%v",
			st.Instrs, st.Cycles, st.MemOpCycles, st.MainMemOps, st.Ret, st.HasRet, st.Output)
	}
	res, err := oracle.Check(context.Background(), p, p.Clone(), oracle.Options{Seed: 7})
	if err != nil {
		return s + fmt.Sprintf(" oracle-err=%v", err)
	}
	return s + fmt.Sprintf(" oracle=%d/%d/%d/%v", res.Entries, res.Runs, res.Inconclusive, res.Equivalent())
}

// TestConcurrentRunsMatchSerial: the memory-image pool is shared by every
// Machine, so goroutines running different programs on differently sized
// images at once must each observe exactly what a serial run observes.
// The mix is suite routines (array kernels that store through memory) and
// random programs run with stacks of different sizes.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	type job struct {
		p          *ir.Program
		stackWords int
	}
	var jobs []job
	for _, r := range workload.All()[:4] {
		p, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{p, 0})
	}
	for seed := 1; seed <= 4; seed++ {
		jobs = append(jobs, job{workload.RandomProgram(int64(seed)), 1 << 10 * seed})
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = outcome(j.p, j.stackWords)
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if got := outcome(j.p, j.stackWords); got != want[i] {
					t.Errorf("program %d round %d: concurrent run\n%s\nserial run\n%s", i, round, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

package sim

import "testing"

// TestAllocGuardSimRun pins memory-image reuse: a warm run of a small
// program takes its main-memory image from the pool, so it allocates far
// less than the 512 KiB image a default configuration needs.
func TestAllocGuardSimRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random")
	}
	p := mustParse(t, smokeSrc)
	if _, err := Run(p, "main", Config{}); err != nil { // warm the pool
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(p, "main", Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("warm sim.Run: %d B/op, %d allocs/op", got, res.AllocsPerOp())
	const ceiling = 64 << 10
	if got >= ceiling {
		t.Errorf("warm sim.Run allocates %d B/op, over the %d ceiling — the memory image is no longer reused", got, ceiling)
	}
}

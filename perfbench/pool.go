package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ccmem/internal/ccmd"
	"ccmem/internal/ir"
	"ccmem/internal/workload"
)

// reqConfig is one compile configuration of the serve-mixed pool.
type reqConfig struct {
	Name     string
	Strategy string
	CCM      int64
	Diff     bool // diff_check=final
}

func (c reqConfig) request() ccmd.RequestConfig {
	rc := ccmd.RequestConfig{Strategy: c.Strategy, CCMBytes: c.CCM}
	if c.Diff {
		rc.DiffCheck = "final"
	}
	return rc
}

// configs is every configuration a pool pair may use: the four
// strategies at the paper's two CCM sizes, each with and without the
// differential oracle.
var configs = func() []reqConfig {
	var out []reqConfig
	for _, diff := range []bool{false, true} {
		suffix := "off"
		if diff {
			suffix = "final"
		}
		out = append(out, reqConfig{"none-0-" + suffix, "none", 0, diff})
		for _, s := range []string{"postpass", "postpass-ipa", "integrated"} {
			for _, size := range []int64{512, 1024} {
				out = append(out, reqConfig{fmt.Sprintf("%s-%d-%s", s, size, suffix), s, size, diff})
			}
		}
	}
	return out
}()

// program is one input of the serve-mixed universe.
type program struct {
	ID   string
	Text string
	IR   *ir.Program
}

// numGenerated is how many workload.Generate programs the universe holds.
const numGenerated = 32

// universe is the fixed set of programs the pool draws from: every suite
// routine's driver program plus numGenerated generated programs. It is
// fixed so the expected outputs recorded for it cover every seed.
func universe() ([]*program, error) {
	var out []*program
	for _, r := range workload.All() {
		p, err := r.Build()
		if err != nil {
			return nil, fmt.Errorf("routine %s: %w", r.Name, err)
		}
		out = append(out, &program{ID: "r:" + r.Name, Text: p.String(), IR: p})
	}
	for i := 0; i < numGenerated; i++ {
		p, err := workload.Generate(workload.Options{Seed: int64(1000 + i), MaxLeafFuncs: 4, MaxDepth: 5})
		if err != nil {
			return nil, fmt.Errorf("generated program %d: %w", i, err)
		}
		out = append(out, &program{ID: fmt.Sprintf("g:%02d", i), Text: p.String(), IR: p})
	}
	return out, nil
}

// Tier names: where a compile request is predicted to be served from.
const (
	tierMem    = "mem"
	tierDisk   = "disk"
	tierRemote = "remote"
	tierMiss   = "miss"
)

// pair is one (program, config) entry of the pool.
type pair struct {
	prog *program
	cfg  reqConfig
	part string // tier of its first visit: disk, remote or miss
}

func (p *pair) key() string { return p.prog.ID + "|" + p.cfg.Name }

// poolSpec sizes a pool.
type poolSpec struct {
	routines, generated int     // programs drawn from the universe
	offCfgs             int     // configs per program without the oracle
	zipfS               float64 // Zipf exponent over pair popularity
}

// Every program gets finalCfgs configs with diff_check=final, one for
// each part of the split (disk, remote, cold), so every program is seen
// in every serving tier; newPool says why only these are pre-warmed.
// The 3:1 oracle share leans to ccmbench, the repository's own
// evaluation, which runs every compile with diff_check=final, and keeps
// one config in four without it, so the per-function artifact tier, which
// only oracle-free compiles use, is served too.
//
// The Zipf exponent 0.7 is the middle of the 0.64-0.83 range Breslau et
// al. ("Web caching and Zipf-like distributions", INFOCOM 1999) measured
// for request popularity at web caches: a few hot pairs take most
// repeats, a long tail is visited once.
const finalCfgs = 3

var fullPool = poolSpec{routines: 64, generated: 32, offCfgs: 1, zipfS: 0.7}
var quickPool = poolSpec{routines: 6, generated: 3, offCfgs: 1, zipfS: 0.9}

// pool is the seeded request pool: pairs in popularity order and the
// cumulative Zipf weights used to draw them.
type pool struct {
	pairs []*pair
	cdf   []float64
}

// newPool draws a pool from the universe. Each program's three
// diff_check=final pairs are split one to each part — one compiled into
// ccmd's disk directory during set-up, one into ccmcached, one left cold
// — and every pair without the oracle stays cold. The split is stratified
// by program, so each seed's cold part costs about the same to compile.
// Only oracle-checked compiles are pre-warmed because they store no
// per-function artifacts, so before the timed window the disk and remote
// tiers hold whole programs only and every per-function lookup during the
// window can only hit memory.
func newPool(rng *rand.Rand, uni []*program, spec poolSpec) *pool {
	var rs, gs []*program
	for _, p := range uni {
		if p.ID[0] == 'r' {
			rs = append(rs, p)
		} else {
			gs = append(gs, p)
		}
	}
	pick := func(ps []*program, n int) []*program {
		idx := rng.Perm(len(ps))[:n]
		sort.Ints(idx)
		out := make([]*program, n)
		for i, j := range idx {
			out[i] = ps[j]
		}
		return out
	}
	progs := append(pick(rs, spec.routines), pick(gs, spec.generated)...)
	var offs, finals []reqConfig
	for _, c := range configs {
		if c.Diff {
			finals = append(finals, c)
		} else {
			offs = append(offs, c)
		}
	}
	parts := [finalCfgs]string{tierDisk, tierRemote, tierMiss}
	var pairs []*pair
	for _, p := range progs {
		for k, i := range rng.Perm(len(finals))[:finalCfgs] {
			pairs = append(pairs, &pair{prog: p, cfg: finals[i], part: parts[k]})
		}
		for _, i := range rng.Perm(len(offs))[:spec.offCfgs] {
			pairs = append(pairs, &pair{prog: p, cfg: offs[i], part: tierMiss})
		}
	}
	pl := &pool{pairs: pairs, cdf: make([]float64, len(pairs))}
	w := make([]float64, len(pairs))
	total := 0.0
	for k := range pairs {
		w[k] = 1 / math.Pow(float64(k+1), spec.zipfS)
		total += w[k]
		pl.cdf[k] = total
	}
	for k := range pl.cdf {
		pl.cdf[k] /= total
		w[k] /= total
	}
	// The popularity order is redrawn until a drawn request's expected
	// program size is within sizeTolerance of the pool's mean size.
	// Program sizes are heavy-tailed (about 40 to 3700 lines), and a
	// request's cost grows with its program's size, so without this a
	// seed that ranks a large program first would offer a heavier load.
	mean := 0.0
	for _, p := range pairs {
		mean += float64(len(p.prog.Text)) / float64(len(pairs))
	}
	for try := 0; ; try++ {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		expect := 0.0
		for k, p := range pairs {
			expect += w[k] * float64(len(p.prog.Text))
		}
		if math.Abs(expect/mean-1) <= sizeTolerance || try == maxRedraws {
			break
		}
	}
	return pl
}

// sizeTolerance and maxRedraws bound newPool's redraws of the
// popularity order.
const (
	sizeTolerance = 0.02
	maxRedraws    = 10000
)

func (pl *pool) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(pl.cdf, rng.Float64())
}

func (pl *pool) part(tier string) []*pair {
	var out []*pair
	for _, p := range pl.pairs {
		if p.part == tier {
			out = append(out, p)
		}
	}
	return out
}

// request is one scheduled request of the open loop.
type request struct {
	due   float64 // seconds after the window opens
	run   bool    // /run instead of /compile
	pair  int     // index into pool.pairs
	first int     // index of this pair's first visit, or -1 if this is it
}

// runShare is the fraction of requests that are /run.
const runShare = 0.2

// repeatGap is the least time between a pair's first visit and a repeat,
// so a repeat is served from memory rather than racing its first visit.
// It is about seven times the p99 latency of a full compile at the
// offered rate (69-75 ms on a 2-vCPU host), so a repeat rarely has to
// wait for its first visit (such waits are counted in loadgen.dep_wait_n).
const repeatGap = 0.5

// schedule draws the open-loop request sequence at rate per second.
func schedule(rng *rand.Rand, pl *pool, rate, seconds float64) []request {
	n := int(rate * seconds)
	out := make([]request, 0, n)
	firstAt := map[int]int{}
	for i := 0; i < n; i++ {
		due := float64(i) / rate
		r := request{due: due, first: -1}
		if rng.Float64() < runShare {
			r.run = true
			r.pair = pl.draw(rng)
			out = append(out, r)
			continue
		}
		for try := 0; try < 32; try++ {
			r.pair = pl.draw(rng)
			f, seen := firstAt[r.pair]
			if !seen || due-out[f].due >= repeatGap {
				break
			}
		}
		if f, seen := firstAt[r.pair]; seen {
			r.first = f
		} else {
			firstAt[r.pair] = i
		}
		out = append(out, r)
	}
	return out
}

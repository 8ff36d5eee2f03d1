// Command perfbench is the repository benchmark. It drives the real
// binaries built from the tree under test — ccmbench, ccmd and
// ccmcached — from one harness process, checks every output against
// expectations recorded at a trusted commit, and prints one JSON result
// line.
//
// Usage (normally through run.sh, which builds everything first):
//
//	perfbench -root DIR -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads:
//
//	tables-cold  the full ccmbench evaluation (§2.1 multiproc, §4.3
//	             ablation, Tables 1-4, Figures 3-4) on an empty
//	             -cache-dir: every compile runs the passes and the
//	             differential oracle, and the disk tier only writes.
//	tables-warm  the same command in a new process on a directory that
//	             set-up filled with one cold run: every compile is a
//	             disk-tier whole-program hit, so key hashing, disk reads,
//	             artifact decode and the simulator dominate.
//	serve-mixed  one ccmd (-cache-dir plus one -remote-url at a ccmcached)
//	             under an open loop at a fixed offered rate: a seeded Zipf
//	             mix of /compile and /run requests whose first visits are
//	             served from disk, the remote tier or a full compile, and
//	             whose repeats are served from memory.
//
// The tables workloads have no random inputs (the paper's suite is
// fixed); the seed only changes the serve-mixed request pool and
// schedule. Claims about a change should be confirmed on the holdout
// seed 7919, which is not used while tuning.
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no tracing anywhere: setup_s (median of the run's set-ups),
// wall_s (median ccmbench wall on tables-*; on serve-mixed the request
// latency summed over the fixed schedule, each request charged the median
// latency of its kind),
// cpu_s (user+system CPU of the processes under test), peak_rss_mb
// (ccmbench, or ccmd) and ok_frac (operations that succeeded and passed
// the checks). With --trace 1 the harness adds one traced
// pass per workload and reports per-layer metrics: for the tables
// workloads an in-process walk of the same evaluation with spans around
// each call into workload, pipeline and sim plus the driver's own spans;
// for serve-mixed a second window with a timing proxy in front of
// ccmcached. The ledger lines (ledger.*) are wall-clock self times that
// sum, with unattributed_s, to the traced wall time.
//
// -record rewrites the expected outputs in expected/ from the binaries
// in -bin; run it only at a commit whose outputs are trusted.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// holdoutSeed is reserved for confirming claims; see the package doc.
const holdoutSeed = 7919

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs to find the programs and its scratch
// space.
type env struct {
	root    string // source tree under test
	bin     string // built binaries
	work    string // scratch directory, emptied per run
	seed    int64
	seconds float64
	rate    float64 // serve-mixed offered rate; 0 means offeredRate
	trace   bool
	quick   bool // test mode: small inputs, short windows
	notes   []string
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

// run is main without the exit, so the scratch directory is removed on
// every path.
func run() int {
	var e env
	workloadName := flag.String("workload", "", "tables-cold | tables-warm | serve-mixed")
	traceN := flag.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	record := flag.Bool("record", false, "rewrite expected/ from the binaries in -bin")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed")
	flag.Float64Var(&e.seconds, "seconds", 15, "measured seconds per run")
	flag.Float64Var(&e.rate, "rate", 0, "serve-mixed offered req/s (0 = the fixed default); for finding the saturation point, not for comparisons")
	flag.StringVar(&e.root, "root", "..", "source tree under test")
	flag.StringVar(&e.bin, "bin", "", "directory holding ccmbench, ccmd and ccmcached")
	flag.StringVar(&e.work, "work", "", "scratch directory")
	flag.BoolVar(&e.quick, "quick", false, "small inputs and short windows (the benchmark's own tests)")
	flag.Parse()
	e.trace = *traceN == 1
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if e.bin == "" || e.work == "" {
		return fail(fmt.Errorf("-bin and -work are required"))
	}
	if err := os.RemoveAll(e.work); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.work)

	if *record {
		if err := recordExpected(&e); err != nil {
			return fail(err)
		}
		return 0
	}
	runner, ok := workloads[*workloadName]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workloadName))
	}
	printProvenance(&e, *workloadName)
	res, err := runner(&e)
	if err != nil {
		return fail(err)
	}
	for _, n := range e.notes {
		fmt.Println("note:", n)
	}
	if err := printResult(res); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

var workloads = map[string]func(*env) (*result, error){
	"tables-cold": func(e *env) (*result, error) { return runTables(e, false) },
	"tables-warm": func(e *env) (*result, error) { return runTables(e, true) },
	"serve-mixed": runServe,
}

// printResult prints a human-readable metric table and then the JSON
// result as the last line.
func printResult(r *result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// finish records the operation counts and the verdict: a run is correct
// when every check passed and no operation failed. Untraced runs report
// the success share as ok_frac (end-to-end metrics are never 0), traced
// runs the failure share as fail_frac.
func (r *result) finish(attempted, failed int64, checksOK bool, layers *layerMetrics) {
	if attempted < 1 {
		attempted, failed = 1, 1
	}
	r.Attempted, r.Failed = attempted, failed
	r.Correct = checksOK && failed == 0
	if layers != nil {
		layers.set("fail_frac", float64(failed)/float64(attempted), "frac")
		r.Metrics = layers.m
		return
	}
	r.set("ok_frac", float64(attempted-failed)/float64(attempted), "frac")
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
}

// printProvenance records the machine, toolchain, code and seed the
// result belongs to.
func printProvenance(e *env, workload string) {
	p := map[string]any{
		"workload":     workload,
		"seed":         e.seed,
		"holdout_seed": holdoutSeed,
		"seconds":      e.seconds,
		"trace":        e.trace,
		"cpu_model":    cpuModel(),
		"nproc":        runtime.NumCPU(),
		"go":           runtime.Version(),
		"commit":       commitOf(e.root),
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(p)
	fmt.Println("provenance:", string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf names the code under test: the git commit when the tree is a
// clean repository, the commit plus "-dirty" and a digest of its sources
// when it has uncommitted changes (so both sides of a comparison of
// uncommitted work stay apart), and otherwise the digest alone.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return treeDigest(root)
	}
	commit := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	if err != nil || len(bytes.TrimSpace(status)) > 0 {
		return commit + "-dirty+" + treeDigest(root)
	}
	return commit
}

// treeDigest is a digest of the tree's Go sources and module file.
func treeDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// writerStackWords sizes the writer's image: no globals, so it has
// 1+writerStackWords words and its top word is at byte writerStackWords*8.
const writerStackWords = 512

// writerAddrs are the byte addresses each writer stores to: low in the
// stack region and the last two words of its image.
var writerAddrs = []int64{16, 40, (writerStackWords - 1) * 8, writerStackWords * 8}

// writerStores returns ILOC that stores a nonzero word at every address
// in writerAddrs through one store opcode. Main's frame base is 8 (the
// first byte past an empty global region), which the frame-relative
// spill offsets subtract.
func writerStores(op string) string {
	var b strings.Builder
	b.WriteString("\tr0 = loadi 8\n\tr1 = loadi 7\n\tf2 = loadf 2.5\n")
	for i, a := range writerAddrs {
		fmt.Fprintf(&b, "\tr%d = loadi %d\n", 10+i, a)
		switch op {
		case "store":
			fmt.Fprintf(&b, "\tstore r1, r%d\n", 10+i)
		case "fstore":
			fmt.Fprintf(&b, "\tfstore f2, r%d\n", 10+i)
		case "storeai":
			fmt.Fprintf(&b, "\tstoreai r1, r0, %d\n", a-8)
		case "fstoreai":
			fmt.Fprintf(&b, "\tfstoreai f2, r0, %d\n", a-8)
		case "spill":
			fmt.Fprintf(&b, "\tspill r1, %d\n", a-8)
		case "fspill":
			fmt.Fprintf(&b, "\tfspill f2, %d\n", a-8)
		default:
			panic("unknown store opcode " + op)
		}
	}
	return b.String()
}

// writerExits ends a writer after its stores in each way a run can end.
var writerExits = []struct {
	name string
	tail string
	cfg  Config
	ctx  func() context.Context
	kind FaultKind // -1 for a clean return
}{
	{"clean", "\tret\n", Config{}, context.Background, -1},
	{"semantic", "\tr5 = loadi 0\n\tr6 = load r5\n\tret\n", Config{}, context.Background, FaultSemantic},
	{"limit", "\tjmp spin\nspin:\n\tjmp spin\n", Config{MaxSteps: 1000}, context.Background, FaultLimit},
	{"cancelled", "\tjmp spin\nspin:\n\tjmp spin\n", Config{}, func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}, FaultCancelled},
}

// readerSrc loads every writer address inside a reader image of
// stackWords stack words and emits it. The reader's one global has two
// words and one initial value, so its global region covers the writer's
// store at byte 16: the copied-in value must land there, and the
// uninitialized second word must read zero.
func readerSrc(stackWords int) (src string, nLoads int) {
	limit := int64(3+stackWords) * 8
	var b strings.Builder
	b.WriteString("global G 2 = i 5\nfunc main() {\nentry:\n\tr0 = addr G, 0\n\tr1 = load r0\n\temit r1\n")
	for i, a := range writerAddrs {
		if a > limit-8 {
			continue
		}
		fmt.Fprintf(&b, "\tr%d = loadi %d\n\tr%d = load r%d\n\temit r%d\n", 10+2*i, a, 11+2*i, 10+2*i, 11+2*i)
		nLoads++
	}
	b.WriteString("\tret\n}\n")
	return b.String(), nLoads
}

// pooledImage takes the image the last run returned to the pool, checks
// it with inspect, and puts it back for the next run.
func pooledImage(t *testing.T, inspect func(*image)) *image {
	t.Helper()
	im, ok := imagePool.Get().(*image)
	if !ok {
		t.Fatal("no image in the pool after a run")
	}
	inspect(im)
	imagePool.Put(im)
	return im
}

// TestReusedImageReadsZero pins the memory-image contract: an image a
// previous run wrote through any store opcode, ending in any way, reaches
// the next run zeroed apart from that run's initialized globals. The
// writer's stores reach the top of its image, so a store site that does
// not raise the dirty mark leaves a nonzero word the reader sees.
func TestReusedImageReadsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random")
	}
	// One P and no GC: the image a run puts back is the one the next
	// Get returns, so the identity checks below are deterministic.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	readers := []struct {
		name       string
		stackWords int
		reuse      bool // the writer's image is big enough to be reused
	}{
		// The reader has two global words and the trap word, so its image
		// is stackWords+3 words; the writer's is writerStackWords+1.
		{"smaller", writerStackWords - 3, true},
		{"equal", writerStackWords - 2, true},
		{"larger", writerStackWords + 64, false},
	}
	for _, op := range []string{"store", "fstore", "storeai", "fstoreai", "spill", "fspill"} {
		for _, exit := range writerExits {
			for _, rd := range readers {
				t.Run(op+"/"+exit.name+"/"+rd.name, func(t *testing.T) {
					// Empty the pool so the writer runs on an image of
					// exactly its own size.
					for imagePool.Get() != nil {
					}
					src := "func main() {\nentry:\n" + writerStores(op) + exit.tail + "}\n"
					cfg := exit.cfg
					cfg.StackWords = writerStackWords
					m, err := New(mustParse(t, src), cfg)
					if err != nil {
						t.Fatal(err)
					}
					_, err = m.RunContext(exit.ctx(), "main")
					f, ok := err.(*Fault)
					if exit.kind < 0 && err != nil || exit.kind >= 0 && (!ok || f.Kind != exit.kind) {
						t.Fatalf("writer ended with %v, want kind %d", err, exit.kind)
					}
					written := pooledImage(t, func(im *image) {
						for _, a := range writerAddrs {
							if im.words[a/8] == 0 {
								t.Fatalf("writer image word %d is zero: the writer did not store there", a/8)
							}
						}
					})

					rsrc, nLoads := readerSrc(rd.stackWords)
					st, err := Run(mustParse(t, rsrc), "main", Config{StackWords: rd.stackWords})
					if err != nil {
						t.Fatal(err)
					}
					got := pooledImage(t, func(im *image) {
						// The reader stores nothing: its image holds G's
						// initial word and zeros, over its whole length.
						for i, w := range im.words {
							if i == 1 && w != 5 || i != 1 && w != 0 {
								t.Fatalf("image word %d = %d after the reader", i, w)
							}
						}
					})
					if reused := &got.words[0] == &written.words[0]; reused != rd.reuse {
						t.Fatalf("reader reused the writer's image = %v, want %v", reused, rd.reuse)
					}
					want := append([]int64{5}, make([]int64, nLoads)...)
					if len(st.Output) != len(want) {
						t.Fatalf("reader emitted %v, want %v", st.Output, want)
					}
					for i, v := range st.Output {
						if v.Int() != want[i] {
							t.Errorf("reader output %d = %d, want %d (residue of the writer)", i, v.Int(), want[i])
						}
					}
				})
			}
		}
	}
}

package pipeline

import (
	"crypto/sha256"
	"encoding/binary"

	"ccmem/internal/ir"
)

// Key-space version tags. Bump when the encoding below or the semantics
// of a stage change, so stale artifacts from an older scheme can never be
// returned (relevant only to long-lived shared caches). Last bumped when
// the keys moved to the codec v2 encoding.
const (
	frontKeyTag   = "ccm-pipeline-front-v3"
	backKeyTag    = "ccm-pipeline-back-v3"
	programKeyTag = "ccm-pipeline-prog-v4"
)

// Every key is SHA-256 over one codec v2 buffer (codecv2.go): the tag,
// the Config fields the stage depends on, and the functions in exactly
// the encoding (bw.fn) their artifacts are stored in. That encoding is
// length-prefixed and decodable, so distinct inputs cannot collide by
// concatenation; Config ints and global sizes travel as i64, so
// unbounded values stay distinct too.
//
// keyWriter sizes the buffer for instrs instructions at 64 bytes each
// (random workload programs encode about 49 per instruction, registers
// and blocks included), so a key costs one allocation, not a chain of
// doublings.
func keyWriter(tag string, instrs int) *bw {
	w := &bw{b: make([]byte, 0, 128+64*instrs)}
	w.str(tag)
	return w
}

// frontKey addresses a function's front-stage artifact. Strategy enters
// only through the integrated CCM capacity: the baseline and both
// post-pass strategies run an identical front stage, so their sweeps
// share artifacts.
func frontKey(f *ir.Func, cfg Config) digest {
	w := keyWriter(frontKeyTag, f.NumInstrs())
	w.bool(cfg.DisableOptimizer)
	w.i64(int64(cfg.IntRegs))
	w.i64(int64(cfg.FloatRegs))
	if cfg.Strategy == Integrated {
		w.i64(cfg.CCMBytes)
	} else {
		w.i64(0)
	}
	// Verified and unverified artifacts are kept apart: a VerifyPasses
	// compile must never be satisfied by an artifact that skipped its
	// checkpoints.
	w.bool(cfg.VerifyPasses)
	w.fn(f)
	return sha256.Sum256(w.b)
}

// backKey addresses a function's back-stage artifact, keyed by the
// post-barrier function content so promotion changes invalidate exactly
// the functions they rewrote.
func backKey(f *ir.Func, cfg Config) digest {
	w := keyWriter(backKeyTag, f.NumInstrs())
	w.bool(cfg.CleanupSpills)
	w.bool(cfg.DisableCompaction)
	w.bool(cfg.VerifyPasses)
	w.fn(f)
	return sha256.Sum256(w.b)
}

// programKey addresses a whole compiled program under the full Config.
func programKey(p *ir.Program, cfg Config) digest {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	w := keyWriter(programKeyTag, n)
	w.i64(int64(cfg.Strategy))
	w.i64(cfg.CCMBytes)
	w.i64(int64(cfg.IntRegs))
	w.i64(int64(cfg.FloatRegs))
	w.bool(cfg.DisableOptimizer)
	w.bool(cfg.DisableCompaction)
	w.bool(cfg.CleanupSpills)
	w.bool(cfg.VerifyPasses)
	// Differential checking can change the shipped program (divergence
	// quarantine degrades functions), so checked and unchecked compiles
	// must not share artifacts.
	w.i64(int64(cfg.DiffCheck))
	w.i64(int64(cfg.DiffVectors))
	w.u32(uint32(len(p.Globals)))
	for _, g := range p.Globals {
		w.str(g.Name)
		w.i64(int64(g.Words))
		w.u32(uint32(len(g.Init)))
		for _, v := range g.Init {
			w.u64(v)
		}
	}
	w.u32(uint32(len(p.Funcs)))
	for _, f := range p.Funcs {
		w.fn(f)
	}
	return sha256.Sum256(w.b)
}

// programSeed derives the differential oracle's argument-vector seed
// from the program key, the same content hash that addresses the
// program in the cache: re-checking an identical (program, Config) pair
// replays identical vectors, with no wall-clock randomness anywhere.
func programSeed(k digest) uint64 {
	return binary.LittleEndian.Uint64(k[:8])
}

package remotecache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"ccmem/internal/diskcache"
	"ccmem/internal/obs"
)

var (
	_ Tier = (*Client)(nil)
	_ Tier = (*Fleet)(nil)
)

// FleetOptions configure NewFleet.
type FleetOptions struct {
	// BaseURLs are the fleet's cache servers, one ccmcached each. Order
	// does not matter for placement (rendezvous hashing keys off the
	// URL, not the position), but Stats().Nodes reports in this order.
	BaseURLs []string
	// RoundTripper overrides every node's HTTP transport; nil uses
	// http.DefaultTransport.
	RoundTripper http.RoundTripper
	// RoundTrippers overrides transports per node — the per-node fault
	// injection seam. When non-nil it must be exactly len(BaseURLs);
	// nil entries fall back to RoundTripper.
	RoundTrippers []http.RoundTripper
	// AuthToken is the shared fleet bearer token (ccmcached -auth-token).
	AuthToken string
	// Obs receives the per-node breaker metrics plus the
	// remotecache.fleet.* counters. nil disables.
	Obs *obs.Registry
	// Tuning holds the per-node hardening knobs (every node gets the
	// same ones); zero fields take the client defaults.
	Tuning Tuning
	// Replicas is how many healthy nodes a write-behind Put lands on —
	// the first R in the key's preference order whose breaker is not
	// open. <= 0 means 2; capped at the node count.
	Replicas int
}

// fleetNode is one server in the fleet: its identity for rendezvous
// hashing plus a full hardened Client (timeouts, retries, verification,
// its own circuit breaker and write-behind queue).
type fleetNode struct {
	url string
	c   *Client
}

// Fleet is a replicated remote cache tier over N ccmcached servers,
// behind the same Tier contract the single-server Client satisfies.
// The replication story is deliberately client-side and gossip-free:
//
//   - Placement: rendezvous (highest-random-weight) hashing over the
//     content-addressed key orders the nodes per key, identically in
//     every process that knows the same URLs — no coordinator, no
//     rebalancing state, and adding or removing a node only moves the
//     keys that hashed to it.
//   - Reads walk the preference order, advancing past per-node circuit
//     breakers and failures; a clean miss from a healthy node keeps
//     walking too (the entry may have been placed while that node was
//     sick).
//   - Writes replicate write-behind to the first Replicas healthy
//     nodes, so any single node's death leaves every entry reachable.
//   - A hit on a secondary queues an asynchronous read-repair put back
//     to the healthy nodes ahead of it, healing placement drift.
//
// Any single node failure therefore costs time, never correctness:
// compiled bytes are identical whether the primary, a replica, or no
// node at all served the artifact.
type Fleet struct {
	nodes    []*fleetNode
	replicas int

	gets, hits, misses atomic.Int64
	corrupt            atomic.Int64
	failovers, repairs atomic.Int64

	cFailovers *obs.Counter // remotecache.fleet.failovers
	cRepairs   *obs.Counter // remotecache.fleet.repairs
}

// NewFleet validates the node URLs and starts one hardened Client per
// node. Any invalid or duplicate URL fails the whole fleet (the caller
// degrades to no remote tier, same as a bad single URL).
func NewFleet(opts FleetOptions) (*Fleet, error) {
	if len(opts.BaseURLs) == 0 {
		return nil, errors.New("remotecache: fleet needs at least one base URL")
	}
	if opts.RoundTrippers != nil && len(opts.RoundTrippers) != len(opts.BaseURLs) {
		return nil, fmt.Errorf("remotecache: %d per-node transports for %d nodes",
			len(opts.RoundTrippers), len(opts.BaseURLs))
	}
	f := &Fleet{
		cFailovers: opts.Obs.Counter("remotecache.fleet.failovers"),
		cRepairs:   opts.Obs.Counter("remotecache.fleet.repairs"),
	}
	seen := make(map[string]bool, len(opts.BaseURLs))
	for i, u := range opts.BaseURLs {
		id := strings.TrimRight(u, "/")
		if seen[id] {
			f.closeNodes()
			return nil, fmt.Errorf("remotecache: duplicate fleet node %q", u)
		}
		seen[id] = true
		rt := opts.RoundTripper
		if opts.RoundTrippers != nil && opts.RoundTrippers[i] != nil {
			rt = opts.RoundTrippers[i]
		}
		c, err := NewClient(Options{
			BaseURL:      u,
			RoundTripper: rt,
			AuthToken:    opts.AuthToken,
			Obs:          opts.Obs,
			Tuning:       opts.Tuning,
		})
		if err != nil {
			f.closeNodes()
			return nil, err
		}
		f.nodes = append(f.nodes, &fleetNode{url: id, c: c})
	}
	f.replicas = opts.Replicas
	if f.replicas <= 0 {
		f.replicas = 2
	}
	if f.replicas > len(f.nodes) {
		f.replicas = len(f.nodes)
	}
	return f, nil
}

func (f *Fleet) closeNodes() {
	for _, n := range f.nodes {
		n.c.Close()
	}
}

// order returns node indices in the key's rendezvous preference order:
// score every node by hashing (URL, key) and sort descending. The hash
// depends only on the node's URL and the key, so every process in the
// fleet — farm workers, daemons, repair writers — computes the same
// order without exchanging a byte.
func (f *Fleet) order(key diskcache.Key) []int {
	type scored struct {
		idx   int
		score uint64
	}
	ss := make([]scored, len(f.nodes))
	for i, n := range f.nodes {
		h := sha256.New()
		h.Write([]byte(n.url))
		h.Write([]byte{0})
		h.Write(key[:])
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		ss[i] = scored{idx: i, score: binary.BigEndian.Uint64(sum[:8])}
	}
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score > ss[b].score
		}
		return ss[a].idx < ss[b].idx
	})
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = s.idx
	}
	return out
}

// Preference returns the key's node URLs in rendezvous order — the
// order reads walk and writes replicate along. Exported for tests and
// fleet debugging ("which node should have this artifact?").
func (f *Fleet) Preference(key diskcache.Key) []string {
	order := f.order(key)
	out := make([]string, len(order))
	for i, ni := range order {
		out[i] = f.nodes[ni].url
	}
	return out
}

// Get walks the key's preference order until a node serves a verified
// hit. Failures and open circuits advance the walk; clean misses do
// too, because the entry may have been placed further down while an
// earlier node was sick. Exactly one fleet-level hit or miss is counted
// per call, whatever the walk did underneath.
func (f *Fleet) Get(key diskcache.Key, kind uint32) ([]byte, bool) {
	f.gets.Add(1)
	order := f.order(key)
	primaryFailed := false
	answered := false
	for i, ni := range order {
		payload, res := f.nodes[ni].c.GetClassified(key, kind)
		switch res {
		case GetHit:
			f.hits.Add(1)
			if i > 0 {
				if primaryFailed {
					f.failovers.Add(1)
					f.cFailovers.Add(1)
				}
				f.repair(order[:i], key, kind, payload)
			}
			return payload, true
		case GetMiss:
			answered = true
		default:
			if i == 0 {
				primaryFailed = true
			}
		}
	}
	f.misses.Add(1)
	if primaryFailed && answered {
		// The preferred node failed but another node resolved the lookup
		// (to a clean miss): the fleet absorbed a node failure.
		f.failovers.Add(1)
		f.cFailovers.Add(1)
	}
	return nil, false
}

// repair queues an asynchronous read-repair put of a secondary hit back
// toward the nodes ahead of the server in the key's preference order —
// the primary first of all. Only healthy nodes (breaker not open) are
// repaired; a dead primary gets its copy the next time a write-behind
// or repair runs after it recovers.
func (f *Fleet) repair(ahead []int, key diskcache.Key, kind uint32, payload []byte) {
	for _, ni := range ahead {
		n := f.nodes[ni]
		if n.c.State() == StateOpen {
			continue
		}
		n.c.Put(key, kind, payload)
		f.repairs.Add(1)
		f.cRepairs.Add(1)
	}
}

// Put replicates payload write-behind to the first Replicas nodes in
// the key's preference order whose breaker is not open. Like the
// single-node client it never blocks a compile; with every node's
// circuit open the put is simply not queued anywhere (each node's own
// drop accounting covers queue overflow).
func (f *Fleet) Put(key diskcache.Key, kind uint32, payload []byte) {
	stored := 0
	for _, ni := range f.order(key) {
		if stored >= f.replicas {
			break
		}
		n := f.nodes[ni]
		if n.c.State() == StateOpen {
			continue
		}
		n.c.Put(key, kind, payload)
		stored++
	}
}

// ReportDecodeFailure reclassifies the most recent fleet-level hit as a
// miss: the entry verified end to end on the wire but the payload would
// not decode as an artifact. Fleet-level only — per-node counters keep
// the wire-level truth.
func (f *Fleet) ReportDecodeFailure() {
	f.hits.Add(-1)
	f.misses.Add(1)
	f.corrupt.Add(1)
}

// Flush drains every node's write-behind queue (or ctx expires) — the
// exit barrier before a fleet process reports or exits.
func (f *Fleet) Flush(ctx context.Context) error {
	for _, n := range f.nodes {
		if err := n.c.Flush(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close drains and stops every node's write-behind worker.
func (f *Fleet) Close() error {
	var first error
	for _, n := range f.nodes {
		if err := n.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// State folds the per-node breakers into one circuit position with
// "any healthy node keeps the tier usable" semantics: closed while any
// node's breaker is closed, half-open when the best any node offers is
// a probe window, and open only when every node's breaker is open —
// the only state /readyz reports as degraded.
func (f *Fleet) State() State {
	best := StateOpen
	for _, n := range f.nodes {
		if s := n.c.State(); s < best {
			best = s
		}
	}
	return best
}

// Stats returns a fleet-level snapshot: logical Gets/Hits/Misses (one
// per fleet Get), every other base counter summed across nodes, the
// fleet counters, and the per-node breakdown in configured node order.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Gets:   f.gets.Load(),
		Hits:   f.hits.Load(),
		Misses: f.misses.Load(),

		Failovers: f.failovers.Load(),
		Repairs:   f.repairs.Load(),

		Corruptions: f.corrupt.Load(),
		Circuit:     f.State().String(),
		Nodes:       make([]NodeStats, 0, len(f.nodes)),
	}
	for _, n := range f.nodes {
		ns := n.c.Stats()
		st.Puts += ns.Puts
		st.PutDrops += ns.PutDrops
		st.PutErrors += ns.PutErrors
		st.Retries += ns.Retries
		st.Timeouts += ns.Timeouts
		st.NetErrors += ns.NetErrors
		st.HTTPErrors += ns.HTTPErrors
		st.Corruptions += ns.Corruptions
		st.Skipped += ns.Skipped
		st.Trips += ns.Trips
		st.Probes += ns.Probes
		st.Nodes = append(st.Nodes, NodeStats{URL: n.url, Stats: ns})
	}
	return st
}

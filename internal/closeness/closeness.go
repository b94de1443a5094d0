// Package closeness implements the term-closeness relation of paper
// §IV-C: clos(vi, vj) = Σ_{paths τ: vi→vj} 1/len(τ), computed by a
// level-by-level shortest-path search with per-level pruning.
//
// Following the paper's two-stage sketch ("distance i+1 nodes can be
// easily derived from distance i ones... we maintain top ones and prune
// less frequent"), the search enumerates the *shortest* paths to every
// node reached within MaxLen hops. Each path τ is weighted by its
// traversal probability — the product of normalized edge weights along
// it — rather than counted raw: the number of length-d paths between two
// hub-adjacent nodes grows combinatorially with d, and unweighted counts
// would rank a distance-4 pair bridged by a few generic hub terms above
// a pair sharing twenty tuples directly. Weighting by traversal
// probability keeps the paper's "frequency and length information of
// paths" while making multiplicity mean something:
//
//	clos(vi, vj) = Σ_{shortest τ: vi→vj} P(τ) / len(τ)
//
// Unlike the random walk, which blends all routes into a global
// stationary score, this keeps explicit length and multiplicity — the
// paper's argument for using a separate metric to estimate result
// coverage.
package closeness

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"kqr/internal/flight"
	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

// Options tunes the path search.
type Options struct {
	// MaxLen bounds path length in hops (default 4: term–tuple–term–
	// tuple–term reaches terms related through one intermediate tuple
	// chain, e.g. same conference or same author).
	MaxLen int
	// Beam keeps only the Beam highest-count nodes per level (0 =
	// unlimited). Pruning bounds work on hub-heavy graphs at the cost
	// of exactness, mirroring the paper's "prune less frequent".
	Beam int
	// Workers bounds the goroutines used by Precompute's offline
	// fan-out (<= 0 means runtime.GOMAXPROCS(0)).
	Workers int
}

func (o Options) withDefaults() (Options, error) {
	if o.MaxLen == 0 {
		o.MaxLen = 4
	}
	if o.MaxLen < 1 {
		return o, fmt.Errorf("closeness: MaxLen %d < 1", o.MaxLen)
	}
	if o.Beam < 0 {
		return o, fmt.Errorf("closeness: negative Beam %d", o.Beam)
	}
	return o, nil
}

// Store computes and caches closeness vectors per source node.
// Concurrent cold misses for the same source are coalesced into a
// single search. It is safe for concurrent use.
type Store struct {
	tg   *tatgraph.Graph
	opts Options

	mu    sync.Mutex
	cache map[graph.NodeID]map[graph.NodeID]float64

	// pk is the packed, read-only closeness table published by Pack (a
	// RAM CSR image of cache) or InstallPacked (a page-backed disk
	// view); Clos serves from it with a binary probe over one
	// contiguous row — the decoder's TransFunc hot path — falling back
	// to the map cache for sources it cannot answer. Boxed because
	// atomic.Pointer needs a concrete type.
	pk atomic.Pointer[closeTable]

	flight   flight.Group[graph.NodeID, map[graph.NodeID]float64]
	searches atomic.Int64 // searches actually executed (cold misses)
	scratch  sync.Pool    // *searchScratch, one per concurrent search
}

// closeTable boxes the published packed.CloseTable for atomic swapping.
type closeTable struct{ t packed.CloseTable }

// New builds a closeness store over a TAT graph.
func New(tg *tatgraph.Graph, opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{tg: tg, opts: opts, cache: make(map[graph.NodeID]map[graph.NodeID]float64)}
	n := tg.CSR().NumNodes()
	s.scratch.New = func() any {
		return &searchScratch{mark: make([]uint32, n), dist: make([]int32, n), acc: make([]float64, n)}
	}
	return s, nil
}

// From returns the closeness of every node reachable from v within
// MaxLen hops (v itself excluded). The returned map is cached and shared;
// callers must not mutate it.
func (s *Store) From(v graph.NodeID) map[graph.NodeID]float64 {
	s.mu.Lock()
	if m, ok := s.cache[v]; ok {
		s.mu.Unlock()
		return m
	}
	s.mu.Unlock()

	// Coalesce concurrent cold misses for v: the first caller runs the
	// search, the rest block and share its result.
	m, _, _ := s.flight.Do(v, func() (map[graph.NodeID]float64, error) {
		// Re-check: this caller may have missed the cache before a
		// previous flight for v completed and published.
		s.mu.Lock()
		m, ok := s.cache[v]
		s.mu.Unlock()
		if ok {
			return m, nil
		}
		m = s.search(v)
		s.mu.Lock()
		s.cache[v] = m
		s.mu.Unlock()
		return m, nil
	})
	return m
}

// Searches returns how many path searches have actually executed —
// cold misses, excluding cache hits and coalesced callers.
func (s *Store) Searches() int64 { return s.searches.Load() }

// searchScratch is one worker's dense path-search state over a graph
// of len(mark) nodes. Node u was reached by the current search iff
// mark[u] == epoch, at depth dist[u]; acc[u] accumulates its
// traversal probability while u is in the layer being built. Bumping
// epoch resets every node at once.
type searchScratch struct {
	epoch    uint32
	mark     []uint32
	dist     []int32
	acc      []float64
	frontier []layerEntry
	next     []layerEntry
	reached  []layerEntry // every reached node with its closeness
}

type layerEntry struct {
	node  graph.NodeID
	count float64
}

// search runs the layered shortest-path counting from v. Each layer
// accumulates into a node in frontier order and publishes in ascending
// node order (or beam order), so results do not depend on scratch reuse.
func (s *Store) search(v graph.NodeID) map[graph.NodeID]float64 {
	s.searches.Add(1)
	sc := s.scratch.Get().(*searchScratch)
	defer s.scratch.Put(sc)
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(sc.mark)
		sc.epoch = 1
	}
	epoch, mark, dist, acc := sc.epoch, sc.mark, sc.dist, sc.acc
	mark[v], dist[v] = epoch, 0
	frontier := append(sc.frontier[:0], layerEntry{node: v, count: 1})
	next := sc.next[:0]
	reached := sc.reached[:0]

	csr := s.tg.CSR()
	for depth := int32(1); int(depth) <= s.opts.MaxLen && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, le := range frontier {
			ws := csr.WeightSum(le.node)
			if ws == 0 {
				continue
			}
			scale := le.count / ws
			nbrs, wts := csr.Adj(le.node)
			for i, u := range nbrs {
				if mark[u] != epoch {
					mark[u], dist[u], acc[u] = epoch, depth, 0
					next = append(next, layerEntry{node: u})
				} else if dist[u] < depth {
					continue // already reached by a shorter path
				}
				acc[u] += scale * wts[i]
			}
		}
		for i, le := range next {
			c := acc[le.node]
			next[i].count = c
			// Publish boundary: quantize so the float32 packed rows
			// reproduce the cached values bit for bit (packed.Quantize).
			reached = append(reached, layerEntry{node: le.node, count: packed.Quantize(c / float64(depth))})
		}
		if s.opts.Beam > 0 && len(next) > s.opts.Beam {
			slices.SortFunc(next, func(a, b layerEntry) int {
				if a.count != b.count {
					return cmp.Compare(b.count, a.count)
				}
				return cmp.Compare(a.node, b.node)
			})
			next = next[:s.opts.Beam]
		} else {
			slices.SortFunc(next, func(a, b layerEntry) int { return cmp.Compare(a.node, b.node) })
		}
		frontier, next = next, frontier
	}
	out := make(map[graph.NodeID]float64, len(reached))
	for _, le := range reached {
		out[le.node] = le.count
	}
	sc.frontier, sc.next, sc.reached = frontier, next, reached
	return out
}

// Clos returns clos(a, b): the shortest-path count from a to b divided
// by the distance, 0 if b is unreachable within MaxLen. Identity is
// defined as 0 — closeness measures co-coverage between *different*
// terms. Packed rows are probed first (no lock, no map), so a warmed
// store answers the decoder's transition lookups allocation-free.
func (s *Store) Clos(a, b graph.NodeID) float64 {
	if a == b {
		return 0
	}
	if b2 := s.pk.Load(); b2 != nil {
		if v, ok := b2.t.Lookup(a, b); ok {
			return v
		}
	}
	return s.From(a)[b]
}

// ClosMap is Clos restricted to the map cache, bypassing the packed
// table. It exists as the pointer-path baseline for the hotpath
// benchmark and the packed-vs-map equivalence tests.
func (s *Store) ClosMap(a, b graph.NodeID) float64 {
	if a == b {
		return 0
	}
	return s.From(a)[b]
}

// CloseNodes returns the k closest nodes to v that pass the keep filter,
// sorted by descending closeness with node id as tie-break. A nil keep
// admits every node.
func (s *Store) CloseNodes(v graph.NodeID, k int, keep func(graph.NodeID) bool) []graph.Scored {
	var out []graph.Scored
	if b := s.pk.Load(); b != nil {
		// A published packed row (RAM or page-backed) avoids the search
		// and, in disk mode, avoids materializing the row into the map
		// cache. The sort below makes the order identical to the map
		// path's.
		if nodes, scores, ok := b.t.Row(v); ok {
			out = make([]graph.Scored, 0, len(nodes))
			for i := range nodes {
				if keep != nil && !keep(nodes[i]) {
					continue
				}
				out = append(out, graph.Scored{Node: nodes[i], Score: float64(scores[i])})
			}
		}
	}
	if out == nil {
		m := s.From(v)
		out = make([]graph.Scored, 0, len(m))
		for u, c := range m {
			if keep != nil && !keep(u) {
				continue
			}
			out = append(out, graph.Scored{Node: u, Score: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// CloseTerms returns the k closest *term* nodes to v, optionally
// restricted to one class (field label); pass class == "" for any field.
// This regenerates the paper's Table I rows ("ranked close terms",
// "ranked close conferences").
func (s *Store) CloseTerms(v graph.NodeID, k int, class string) []graph.Scored {
	return s.CloseNodes(v, k, func(u graph.NodeID) bool {
		if s.tg.Kind(u) != tatgraph.KindTerm {
			return false
		}
		return class == "" || s.tg.Class(u) == class
	})
}

// Precompute warms the cache for the given sources (the offline stage).
// Sources fan out over a worker pool of Options.Workers goroutines
// (default runtime.GOMAXPROCS(0)) — searches are independent per
// source, so throughput scales with cores. The path search itself
// cannot fail, so the only error is a ctx cancellation, wrapped with
// the node the pool stopped at so partial warms are diagnosable.
func (s *Store) Precompute(ctx context.Context, nodes []graph.NodeID) error {
	return flight.ForEach(ctx, s.opts.Workers, len(nodes), func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("closeness: precompute node %d: %w", nodes[i], err)
		}
		s.From(nodes[i])
		return nil
	})
}

// Snapshot copies the cached closeness vectors for persistence.
func (s *Store) Snapshot() map[graph.NodeID]map[graph.NodeID]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[graph.NodeID]map[graph.NodeID]float64, len(s.cache))
	for v, m := range s.cache {
		cp := make(map[graph.NodeID]float64, len(m))
		for u, c := range m {
			cp[u] = c
		}
		out[v] = cp
	}
	return out
}

// Restore replaces the cache with previously snapshotted vectors
// (quantized onto the float32 publish grid) and repacks the flat
// table, so restored state serves from the packed path immediately.
func (s *Store) Restore(snap map[graph.NodeID]map[graph.NodeID]float64) {
	s.mu.Lock()
	s.cache = make(map[graph.NodeID]map[graph.NodeID]float64, len(snap))
	for v, m := range snap {
		cp := make(map[graph.NodeID]float64, len(m))
		for u, c := range m {
			cp[u] = packed.Quantize(c)
		}
		s.cache[v] = cp
	}
	s.mu.Unlock()
	s.Pack()
}

// Pack republishes the CSR-packed image of the current cache. Call it
// after bulk fills (Precompute; Restore does so itself); sources cached
// later serve through the map fallback until the next call.
func (s *Store) Pack() {
	s.mu.Lock()
	t := packed.BuildClos(s.tg.CSR().NumNodes(), s.cache)
	s.mu.Unlock()
	s.pk.Store(&closeTable{t: t})
}

// InstallPacked publishes an externally built closeness table — a
// page-backed disk view (internal/diskmode) — in place of the
// RAM-packed cache image. A source the table cannot answer (ok false
// from Lookup/Row, e.g. a draining disk store) falls back to the map
// cache and the layered search, exactly like an unwarmed source.
func (s *Store) InstallPacked(t packed.CloseTable) {
	s.pk.Store(&closeTable{t: t})
}

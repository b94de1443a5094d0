package randomwalk

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"kqr/internal/flight"
	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

// PreferenceMode selects how the restart distribution is built.
type PreferenceMode int

const (
	// Contextual restarts at the start node's context (Algorithm 1) —
	// the paper's improved model.
	Contextual PreferenceMode = iota
	// Individual restarts at the start node itself — the basic model,
	// kept as the ablation baseline (paper §IV-B2, Fig. 4).
	Individual
)

// String names the mode.
func (m PreferenceMode) String() string {
	if m == Individual {
		return "individual"
	}
	return "contextual"
}

// Extractor performs similar-term extraction over a TAT graph. Results
// are cached per start node, so repeated queries (and the offline
// precomputation pass) do not re-run the walk. Concurrent cold misses
// for the same start node are coalesced into a single walk. It is safe
// for concurrent use.
type Extractor struct {
	tg   *tatgraph.Graph
	opts Options
	mode PreferenceMode

	mu    sync.Mutex
	cache map[graph.NodeID][]graph.Scored

	// pk is the packed, read-only table published by Pack (a RAM-backed
	// CSR image of cache) or InstallPacked (a page-backed disk view);
	// the query hot path reads it via SimRow without locks or map
	// lookups, falling back to the map cache when a row is absent. The
	// interface is boxed because atomic.Pointer needs a concrete type.
	pk atomic.Pointer[packedTable]

	flight flight.Group[graph.NodeID, []graph.Scored]
	walks  atomic.Int64 // walks actually executed (cold misses)
}

// packedTable boxes the published packed.Table for atomic swapping.
type packedTable struct{ t packed.Table }

// NewExtractor builds an extractor. Options zero-values get defaults.
func NewExtractor(tg *tatgraph.Graph, mode PreferenceMode, opts Options) *Extractor {
	return &Extractor{
		tg:    tg,
		opts:  opts,
		mode:  mode,
		cache: make(map[graph.NodeID][]graph.Scored),
	}
}

// Mode returns the extractor's preference mode.
func (e *Extractor) Mode() PreferenceMode { return e.mode }

// maxKept bounds how many similar nodes are cached per start node; 64
// comfortably exceeds any candidate-list size used online (paper Fig. 10
// tops out at 50).
const maxKept = 64

// SimilarNodes returns up to k nodes of the same class as t0, ranked by
// contextual random-walk score, excluding t0 itself. Scores are
// normalized so the best candidate scores 1; downstream emission
// probabilities renormalize anyway, and relative order is what matters.
func (e *Extractor) SimilarNodes(t0 graph.NodeID, k int) ([]graph.Scored, error) {
	if k <= 0 || k > maxKept {
		k = maxKept
	}
	e.mu.Lock()
	cached, ok := e.cache[t0]
	e.mu.Unlock()
	if !ok {
		// A published packed table (RAM or page-backed) answers before
		// any walk runs: in disk mode this is what keeps warmed terms
		// from re-materializing in the map cache.
		cached, ok = e.tableRow(t0)
	}
	if !ok {
		// Coalesce concurrent cold misses for t0: the first caller runs
		// the walk, the rest block and share its result.
		var err error
		cached, err, _ = e.flight.Do(t0, func() ([]graph.Scored, error) {
			// Re-check: this caller may have missed the cache before a
			// previous flight for t0 completed and published.
			e.mu.Lock()
			top, ok := e.cache[t0]
			e.mu.Unlock()
			if ok {
				return top, nil
			}
			tops, ferr := e.walkBlock([]graph.NodeID{t0})
			if ferr != nil {
				return nil, ferr
			}
			top = tops[0]
			e.mu.Lock()
			e.cache[t0] = top
			e.mu.Unlock()
			return top, nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(cached) > k {
		cached = cached[:k]
	}
	return cached, nil
}

// walkBlock runs the walks from up to lanes start nodes through one
// kernel pass on pooled scratch and ranks each: one lane for a cold
// SimilarNodes miss, up to four for a Precompute block.
func (e *Extractor) walkBlock(block []graph.NodeID) ([][]graph.Scored, error) {
	opts, err := e.opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := e.tg.CSR().NumNodes()
	rs := make([][]graph.Scored, len(block))
	for i, t0 := range block {
		var pref map[graph.NodeID]float64
		if e.mode == Contextual {
			pref = e.tg.ContextPreference(t0)
		} else {
			pref = e.tg.SelfPreference(t0)
		}
		if rs[i], err = restartVector(pref, n); err != nil {
			return nil, fmt.Errorf("randomwalk: walk from node %d: %w", t0, err)
		}
	}
	e.walks.Add(int64(len(block)))
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	out := s.out[:len(block)]
	for l := range out {
		out[l] = resize(out[l], n)
	}
	s.run(e.tg.CSR(), rs, opts, out)
	tops := make([][]graph.Scored, len(block))
	for l, t0 := range block {
		tops[l] = e.rank(t0, out[l])
	}
	return tops, nil
}

// rank turns t0's stationary scores into its cached similar-node list.
// It overwrites scores.
func (e *Extractor) rank(t0 graph.NodeID, scores []float64) []graph.Scored {
	// Discount hub terms by idf before ranking: generic words
	// ("efficient", "framework") accumulate walk mass from every
	// direction without being substitutable for anything. The same
	// inverse-occurrence weight that biases the preference vector
	// (Algorithm 1) debiases the result ranking; the raw
	// co-occurrence baseline has no such correction, which is one of
	// the contrasts Table II draws.
	for i, s := range scores {
		if s > 0 {
			scores[i] = s * e.tg.IDF(graph.NodeID(i))
		} else {
			scores[i] = 0
		}
	}
	top := TopNodes(scores, maxKept, func(v graph.NodeID) bool {
		return v != t0 && e.tg.SameClass(v, t0)
	})
	if len(top) > 0 && top[0].Score > 0 {
		norm := top[0].Score
		for i := range top {
			top[i].Score /= norm
		}
	}
	// Publish boundary: quantize so the float32 packed rows reproduce
	// the cached values bit for bit (see packed.Quantize).
	for i := range top {
		top[i].Score = packed.Quantize(top[i].Score)
	}
	return top
}

// Walks returns how many walks have actually executed — cold misses
// that ran the extraction, excluding cache hits and coalesced callers.
func (e *Extractor) Walks() int64 { return e.walks.Load() }

// Sim returns the similarity of candidate t to start node t0: its
// normalized walk score, or 0 if t is not among t0's cached similar
// nodes. Identity is defined as 1.
func (e *Extractor) Sim(t0, t graph.NodeID) (float64, error) {
	if t0 == t {
		return 1, nil
	}
	list, err := e.SimilarNodes(t0, maxKept)
	if err != nil {
		return 0, err
	}
	for _, sn := range list {
		if sn.Node == t {
			return sn.Score, nil
		}
	}
	return 0, nil
}

// Precompute runs extraction for every given start node, warming the
// cache. It is the offline stage of the paper's pipeline. Start nodes
// with neither a cached nor a packed row are de-duplicated and walked
// in blocks of four through one kernel pass each; blocks fan out over
// a worker pool of Options.Workers goroutines (default
// runtime.GOMAXPROCS(0)). The first error stops the pool and is
// returned naming the offending node; ctx cancellation stops
// scheduling and returns the context's error. A node walked here while
// a concurrent SimilarNodes miss walks it too is walked twice; both
// walks produce the same row.
func (e *Extractor) Precompute(ctx context.Context, nodes []graph.NodeID) error {
	todo := e.missing(nodes)
	blocks := (len(todo) + lanes - 1) / lanes
	return flight.ForEach(ctx, e.opts.Workers, blocks, func(b int) error {
		block := todo[b*lanes : min((b+1)*lanes, len(todo))]
		tops, err := e.walkBlock(block)
		if err != nil {
			return err
		}
		e.mu.Lock()
		for i, t0 := range block {
			if _, ok := e.cache[t0]; !ok {
				e.cache[t0] = tops[i]
			}
		}
		e.mu.Unlock()
		return nil
	})
}

// missing returns the distinct nodes, in first-seen order, that have
// neither a cached nor a packed row.
func (e *Extractor) missing(nodes []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(nodes))
	todo := make([]graph.NodeID, 0, len(nodes))
	e.mu.Lock()
	for _, v := range nodes {
		if _, ok := e.cache[v]; !ok && !seen[v] {
			seen[v] = true
			todo = append(todo, v)
		}
	}
	e.mu.Unlock()
	return slices.DeleteFunc(todo, func(v graph.NodeID) bool {
		_, _, ok := e.SimRow(v)
		return ok
	})
}

// Cached returns how many start nodes have a row in the map cache,
// without copying it.
func (e *Extractor) Cached() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Snapshot copies the cached similar-term lists, keyed by start node,
// for persistence of the offline stage.
func (e *Extractor) Snapshot() map[graph.NodeID][]graph.Scored {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[graph.NodeID][]graph.Scored, len(e.cache))
	for v, list := range e.cache {
		cp := make([]graph.Scored, len(list))
		copy(cp, list)
		out[v] = cp
	}
	return out
}

// Restore replaces the cache with previously snapshotted lists. Entries
// are trusted as-is (modulo float32 quantization — pre-quantization
// artifacts restore onto the same grid new walks publish on); callers
// must ensure the snapshot was taken over an identically built graph.
// The packed table is rebuilt so restored state serves from the flat
// path immediately — this covers artifact loads, follower bootstrap,
// and generation carry-over.
func (e *Extractor) Restore(snap map[graph.NodeID][]graph.Scored) {
	e.mu.Lock()
	e.cache = make(map[graph.NodeID][]graph.Scored, len(snap))
	for v, list := range snap {
		cp := make([]graph.Scored, len(list))
		copy(cp, list)
		for i := range cp {
			cp[i].Score = packed.Quantize(cp[i].Score)
		}
		e.cache[v] = cp
	}
	e.mu.Unlock()
	e.Pack()
}

// Pack republishes the CSR-packed image of the current cache. Call it
// after bulk cache fills (Precompute, Restore does so itself); rows
// cached after the last Pack are still served through the map fallback
// until the next call.
func (e *Extractor) Pack() {
	e.mu.Lock()
	t := packed.BuildSim(e.tg.CSR().NumNodes(), e.cache)
	e.mu.Unlock()
	e.pk.Store(&packedTable{t: t})
}

// InstallPacked publishes an externally built packed table — a
// page-backed disk view (internal/diskmode) — in place of the
// RAM-packed cache image. A later Pack replaces it wholesale; a row the
// table cannot serve (ok false, e.g. a draining disk store) falls back
// to the walk exactly like an unwarmed term.
func (e *Extractor) InstallPacked(t packed.Table) {
	e.pk.Store(&packedTable{t: t})
}

// tableRow materializes the published packed row of t0 as a Scored
// list, for the map-shaped read paths (SimilarNodes, Sim). ok is false
// when no table is published or the table has no row for t0.
func (e *Extractor) tableRow(t0 graph.NodeID) ([]graph.Scored, bool) {
	nodes, scores, ok := e.SimRow(t0)
	if !ok {
		return nil, false
	}
	list := make([]graph.Scored, len(nodes))
	for i := range nodes {
		list[i] = graph.Scored{Node: nodes[i], Score: float64(scores[i])}
	}
	return list, true
}

// SimRow returns t0's packed candidate row in rank order — the
// allocation-free hot-path equivalent of SimilarNodes(t0, maxKept).
// ok is false when t0 has no packed row yet (not warmed, or cached
// after the last Pack); callers then fall back to SimilarNodes. The
// returned slices are read-only views into the published table.
func (e *Extractor) SimRow(t0 graph.NodeID) ([]graph.NodeID, []float32, bool) {
	if b := e.pk.Load(); b != nil {
		return b.t.Row(t0)
	}
	return nil, nil, false
}

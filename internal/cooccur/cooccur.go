// Package cooccur implements the frequent co-occurrence similarity
// baseline the paper compares against (§VI-A, citing result-analysis
// work [15]): two terms are similar in proportion to how often they
// occur together. "Together" means within one local record context — the
// same tuple for attribute words, or directly linked tuples for entity
// names (so the baseline can find an author's co-authors, as the paper
// notes, but never the colleagues connected only through conferences or
// shared vocabulary). That locality is exactly what the contextual
// random walk transcends, and what Table II / Figure 5 measure.
package cooccur

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kqr/internal/flight"
	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

// maxDepth bounds the search for the nearest co-occurrence ring:
// term → tuple → term covers attribute words sharing a tuple (distance
// 2); term → entity → record → entity' → term' covers entity names
// sharing a record, e.g. co-authors of one paper (distance 4, with
// association tables collapsed to edges).
const maxDepth = 4

// Extractor ranks same-class terms by local co-occurrence counts. It
// caches per-source results, coalesces concurrent cold misses for the
// same source into a single computation, and is safe for concurrent
// use.
type Extractor struct {
	tg *tatgraph.Graph

	// Workers bounds the goroutines used by Precompute's offline
	// fan-out (<= 0 means runtime.GOMAXPROCS(0)). Set it before any
	// concurrent use.
	Workers int

	mu    sync.Mutex
	cache map[graph.NodeID][]graph.Scored

	// pk is the packed, read-only table published by Pack or
	// InstallPacked; see randomwalk.Extractor for the protocol. Boxed
	// because atomic.Pointer needs a concrete type.
	pk atomic.Pointer[packedTable]

	flight   flight.Group[graph.NodeID, []graph.Scored]
	extracts atomic.Int64 // extractions actually executed (cold misses)
}

// packedTable boxes the published packed.Table for atomic swapping.
type packedTable struct{ t packed.Table }

// NewExtractor builds a co-occurrence extractor over a TAT graph.
func NewExtractor(tg *tatgraph.Graph) *Extractor {
	return &Extractor{tg: tg, cache: make(map[graph.NodeID][]graph.Scored)}
}

// maxKept mirrors randomwalk's cache bound.
const maxKept = 64

// SimilarNodes returns up to k same-class nodes ranked by co-occurrence
// count with t0, scores normalized so the best candidate is 1. The count
// of a candidate is the number of (shortest) connection paths within the
// local context radius, so a pair sharing three tuples outranks a pair
// sharing one.
func (e *Extractor) SimilarNodes(t0 graph.NodeID, k int) ([]graph.Scored, error) {
	if k <= 0 || k > maxKept {
		k = maxKept
	}
	e.mu.Lock()
	cached, ok := e.cache[t0]
	e.mu.Unlock()
	if !ok {
		// A published packed table (RAM or page-backed) answers before
		// any extraction runs; in disk mode this keeps warmed terms out
		// of the map cache.
		cached, ok = e.tableRow(t0)
	}
	if !ok {
		// Coalesce concurrent cold misses for t0: the first caller
		// runs the extraction, the rest block and share its result.
		cached, _, _ = e.flight.Do(t0, func() ([]graph.Scored, error) {
			// Re-check: this caller may have missed the cache before a
			// previous flight for t0 completed and published.
			e.mu.Lock()
			list, ok := e.cache[t0]
			e.mu.Unlock()
			if ok {
				return list, nil
			}
			list = e.extract(t0)
			e.mu.Lock()
			e.cache[t0] = list
			e.mu.Unlock()
			return list, nil
		})
	}
	if len(cached) > k {
		cached = cached[:k]
	}
	return cached, nil
}

// Extractions returns how many extractions have actually executed —
// cold misses, excluding cache hits and coalesced callers.
func (e *Extractor) Extractions() int64 { return e.extracts.Load() }

// Precompute warms the cache for the given start nodes (the offline
// stage), fanning out over a worker pool of Workers goroutines (default
// runtime.GOMAXPROCS(0)). The first error stops the pool and is
// returned wrapped with the offending node id; extraction itself cannot
// fail, so in practice that is a ctx cancellation.
func (e *Extractor) Precompute(ctx context.Context, nodes []graph.NodeID) error {
	return flight.ForEach(ctx, e.Workers, len(nodes), func(i int) error {
		if _, err := e.SimilarNodes(nodes[i], maxKept); err != nil {
			return fmt.Errorf("cooccur: precompute node %d: %w", nodes[i], err)
		}
		return nil
	})
}

// extract runs the bounded path-count from t0, keeping only the
// *nearest* ring at which same-class nodes appear: attribute words stop
// at their shared tuples (distance 2) without picking up terms of linked
// records, while entity names reach through one shared record (distance
// 4). This is what makes the baseline strictly local — frequent
// co-occurrence, nothing transitive.
func (e *Extractor) extract(t0 graph.NodeID) []graph.Scored {
	e.extracts.Add(1)
	csr := e.tg.CSR()
	dist := map[graph.NodeID]int{t0: 0}
	counts := map[graph.NodeID]float64{t0: 1}
	frontier := []graph.NodeID{t0}
	found := make(map[graph.NodeID]float64)

	for depth := 1; depth <= maxDepth && len(frontier) > 0 && len(found) == 0; depth++ {
		nextCounts := make(map[graph.NodeID]float64)
		for _, u := range frontier {
			cu := counts[u]
			csr.Neighbors(u, func(v graph.NodeID, w float64) bool {
				if d, seen := dist[v]; seen && d < depth {
					return true
				}
				// Weight the first hop by the occurrence edge weight (a
				// term used three times in a title co-occurs three
				// times); later hops propagate path counts.
				step := cu
				if depth == 1 {
					step = w
				}
				nextCounts[v] += step
				return true
			})
		}
		var next []graph.NodeID
		for v, c := range nextCounts {
			dist[v] = depth
			counts[v] = c
			next = append(next, v)
			if v != t0 && e.tg.SameClass(v, t0) {
				found[v] = c
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}

	out := make([]graph.Scored, 0, len(found))
	for v, c := range found {
		out = append(out, graph.Scored{Node: v, Score: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	if len(out) > maxKept {
		out = out[:maxKept]
	}
	if len(out) > 0 && out[0].Score > 0 {
		norm := out[0].Score
		for i := range out {
			out[i].Score /= norm
		}
	}
	// Publish boundary: quantize so the float32 packed rows reproduce
	// the cached values bit for bit (see packed.Quantize).
	for i := range out {
		out[i].Score = packed.Quantize(out[i].Score)
	}
	return out
}

// Snapshot copies the cached similar-term lists for persistence.
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

// Cached returns how many start nodes have a cached list, without
// copying them.
func (e *Extractor) Cached() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Restore replaces the cache with previously snapshotted lists
// (quantized onto the float32 publish grid) and repacks the flat table,
// so restored state serves from the packed path immediately.
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

// Pack republishes the CSR-packed image of the current cache; rows
// cached later serve through the map fallback until the next call.
func (e *Extractor) Pack() {
	e.mu.Lock()
	t := packed.BuildSim(e.tg.CSR().NumNodes(), e.cache)
	e.mu.Unlock()
	e.pk.Store(&packedTable{t: t})
}

// InstallPacked publishes an externally built packed table — a
// page-backed disk view (internal/diskmode) — in place of the
// RAM-packed cache image; see randomwalk.Extractor.InstallPacked.
func (e *Extractor) InstallPacked(t packed.Table) {
	e.pk.Store(&packedTable{t: t})
}

// tableRow materializes the published packed row of t0 as a Scored
// list for the map-shaped read paths; ok is false when no table is
// published or it has no row for t0.
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

// SimRow returns t0's packed candidate row in rank order with ok=false
// when absent — the allocation-free hot-path view; see
// randomwalk.Extractor.SimRow.
func (e *Extractor) SimRow(t0 graph.NodeID) ([]graph.NodeID, []float32, bool) {
	if b := e.pk.Load(); b != nil {
		return b.t.Row(t0)
	}
	return nil, nil, false
}

// Sim returns the normalized co-occurrence similarity of t to t0, 0 if
// they never co-occur locally. Identity is 1.
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

// Package randomwalk implements random walk with restart (personalized
// PageRank) over the TAT graph, and the contextual similar-term
// extraction of the paper's Algorithm 1. The "improvement" over the
// basic model is the choice of restart distribution: instead of
// restarting at the start node itself (the individual walk, which mostly
// rediscovers direct co-occurrences), the walk restarts at the start
// node's *context* — its neighboring tuples/terms weighted by field
// balance, co-occurrence frequency and idf — which lets it reach
// semantically related terms that never co-occur directly (paper Fig. 4).
package randomwalk

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"kqr/internal/graph"
)

// Options tunes the power iteration.
type Options struct {
	// Damping is λ in p = λ·A·p + (1−λ)·r (default 0.8).
	Damping float64
	// Epsilon is the L1 convergence threshold (default 1e-8).
	Epsilon float64
	// MaxIter caps the number of iterations (default 60).
	MaxIter int
	// Workers bounds the goroutines used by Extractor.Precompute's
	// offline fan-out (<= 0 means runtime.GOMAXPROCS(0)). Scores itself
	// ignores it: one walk is a single power iteration.
	Workers int
}

func (o Options) withDefaults() (Options, error) {
	if o.Damping == 0 {
		o.Damping = 0.8
	}
	if o.Damping < 0 || o.Damping >= 1 {
		return o, fmt.Errorf("randomwalk: damping %v outside [0,1)", o.Damping)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-8
	}
	if o.Epsilon < 0 {
		return o, fmt.Errorf("randomwalk: negative epsilon %v", o.Epsilon)
	}
	if o.MaxIter == 0 {
		o.MaxIter = 60
	}
	if o.MaxIter < 1 {
		return o, fmt.Errorf("randomwalk: MaxIter %d < 1", o.MaxIter)
	}
	return o, nil
}

// Scores runs random walk with restart on g with the given restart
// distribution and returns the stationary score of every node plus the
// number of iterations performed. The preference vector is normalized
// internally; it must contain at least one positive entry.
//
// Transitions follow edge weights (row-stochastic); the walk restarts
// with probability 1−damping, and mass at dangling (isolated) nodes is
// redirected to the restart distribution so the scores keep summing to 1.
// It is the one-lane form of the kernel Extractor.Precompute runs in
// blocks of four, so both produce the same bits.
func Scores(g *graph.Graph, pref map[graph.NodeID]float64, opts Options) ([]float64, int, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, 0, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, 0, fmt.Errorf("randomwalk: empty graph")
	}
	r, err := restartVector(pref, n)
	if err != nil {
		return nil, 0, err
	}
	out := make([]float64, n)
	s := scratchPool.Get().(*scratch)
	iters := s.run(g, [][]graph.Scored{r}, opts, [][]float64{out})
	scratchPool.Put(s)
	return out, iters[0], nil
}

// restartVector validates pref and returns it normalized to unit mass,
// in ascending node order. The total is summed in that order, so the
// normalized weights do not depend on map iteration order.
func restartVector(pref map[graph.NodeID]float64, n int) ([]graph.Scored, error) {
	r := make([]graph.Scored, 0, len(pref))
	for v, w := range pref {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("randomwalk: preference node %d out of range [0,%d)", v, n)
		}
		if w < 0 {
			return nil, fmt.Errorf("randomwalk: negative preference %v on node %d", w, v)
		}
		r = append(r, graph.Scored{Node: v, Score: w})
	}
	slices.SortFunc(r, func(a, b graph.Scored) int { return cmp.Compare(a.Node, b.Node) })
	total := 0.0
	for _, e := range r {
		total += e.Score
	}
	if total == 0 {
		return nil, fmt.Errorf("randomwalk: preference vector has no positive mass")
	}
	for i := range r {
		r[i].Score /= total
	}
	return r, nil
}

// lanes is how many walks one kernel sweep advances together.
const lanes = 4

// vec holds one node's entries for every lane, so a sweep reads each
// neighbour's four contributions from one cache line.
type vec [lanes]float64

// scratch is one worker's kernel state: the current and next score
// vectors, the per-node outgoing contribution λ·p[u]/WeightSum(u), and
// the restart vector, in a one-lane and a lane-interleaved form. Each
// grows to the graph at hand on first use.
type scratch struct {
	p, next, c, r     []float64
	p4, next4, c4, r4 []vec
	out               [lanes][]float64 // per-lane results for Extractor blocks
}

// scratchPool recycles kernel scratch across walks and workers.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run advances the walks restarting at rs (1 to lanes of them, each a
// restartVector) until each converges or hits opts.MaxIter, writing
// walk l's stationary scores into out[l] (length g.NumNodes()) and
// returning its iteration count. Each lane performs exactly the
// floating-point operations, in the same order, of a scatter power
// iteration (p[u]'s mass pushed to u's neighbours in ascending u): the
// pull sums v's neighbours in ascending order, which is the order the
// scatter adds into v, and the graph's merged edge weights are
// symmetric bit for bit. In a block, a lane that converges early is
// frozen while the others keep sweeping.
func (s *scratch) run(g *graph.Graph, rs [][]graph.Scored, opts Options, out [][]float64) [lanes]int {
	n := g.NumNodes()
	if len(rs) == 1 {
		s.p, s.next, s.c, s.r = resize(s.p, n), resize(s.next, n), resize(s.c, n), resize(s.r, n)
		clear(s.r)
		for _, e := range rs[0] {
			s.r[e.Node] = e.Score
		}
		copy(s.p, s.r)
		p, next := s.p, s.next
		it := 0
		for it < opts.MaxIter {
			diff := sweep1(g, p, next, s.c, s.r, opts.Damping)
			p, next = next, p
			it++
			if diff < opts.Epsilon {
				break
			}
		}
		copy(out[0], p)
		return [lanes]int{it}
	}

	s.p4, s.next4, s.c4, s.r4 = resize(s.p4, n), resize(s.next4, n), resize(s.c4, n), resize(s.r4, n)
	clear(s.r4)
	for l, entries := range rs {
		for _, e := range entries {
			s.r4[e.Node][l] = e.Score
		}
	}
	copy(s.p4, s.r4)
	p, next := s.p4, s.next4
	var iters [lanes]int
	live := len(rs)
	for it := 0; it < opts.MaxIter && live > 0; it++ {
		diff := sweep4(g, p, next, s.c4, s.r4, opts.Damping)
		p, next = next, p
		for l := range rs {
			if iters[l] == 0 && diff[l] < opts.Epsilon {
				iters[l] = it + 1
				live--
				copyLane(out[l], p, l)
			}
		}
	}
	for l := range rs {
		if iters[l] == 0 {
			iters[l] = opts.MaxIter
			copyLane(out[l], p, l)
		}
	}
	return iters
}

func copyLane(dst []float64, src []vec, l int) {
	for v := range dst {
		dst[v] = src[v][l]
	}
}

// sweep1 is one power-iteration step of a single walk: p → next.
// It returns the L1 distance between the two.
func sweep1(g *graph.Graph, p, next, c, r []float64, damping float64) float64 {
	dangling := 0.0
	for u := range p {
		ws := g.WeightSum(graph.NodeID(u))
		if ws == 0 {
			dangling += p[u]
			continue
		}
		c[u] = damping * p[u] / ws
	}
	restart := (1 - damping) + damping*dangling
	diff := 0.0
	for v := range next {
		nbrs, wts := g.Adj(graph.NodeID(v))
		wts = wts[:len(nbrs)] // drops the bounds check on wts[i]
		sum := 0.0
		for i, u := range nbrs {
			sum += c[u] * wts[i]
		}
		sum += restart * r[v]
		diff += math.Abs(sum - p[v])
		next[v] = sum
	}
	return diff
}

// sweep4 is sweep1 over four interleaved lanes at once.
func sweep4(g *graph.Graph, p, next, c, r []vec, damping float64) vec {
	var dangling vec
	for u := range p {
		pu := &p[u]
		ws := g.WeightSum(graph.NodeID(u))
		if ws == 0 {
			dangling[0] += pu[0]
			dangling[1] += pu[1]
			dangling[2] += pu[2]
			dangling[3] += pu[3]
			continue
		}
		cu := &c[u]
		cu[0] = damping * pu[0] / ws
		cu[1] = damping * pu[1] / ws
		cu[2] = damping * pu[2] / ws
		cu[3] = damping * pu[3] / ws
	}
	var restart, diff vec
	for l := range restart {
		restart[l] = (1 - damping) + damping*dangling[l]
	}
	for v := range next {
		nbrs, wts := g.Adj(graph.NodeID(v))
		wts = wts[:len(nbrs)] // drops the bounds check on wts[i]
		var s0, s1, s2, s3 float64
		for i, u := range nbrs {
			w, cu := wts[i], &c[u]
			s0 += cu[0] * w
			s1 += cu[1] * w
			s2 += cu[2] * w
			s3 += cu[3] * w
		}
		rv, pv := &r[v], &p[v]
		s0 += restart[0] * rv[0]
		s1 += restart[1] * rv[1]
		s2 += restart[2] * rv[2]
		s3 += restart[3] * rv[3]
		diff[0] += math.Abs(s0 - pv[0])
		diff[1] += math.Abs(s1 - pv[1])
		diff[2] += math.Abs(s2 - pv[2])
		diff[3] += math.Abs(s3 - pv[3])
		next[v] = vec{s0, s1, s2, s3}
	}
	return diff
}

// TopNodes returns the k highest-scoring nodes passing the keep filter,
// sorted by descending score with node id as the deterministic
// tie-break. A nil keep admits every node; k <= 0 returns all kept
// nodes with positive score.
func TopNodes(scores []float64, k int, keep func(graph.NodeID) bool) []graph.Scored {
	out := make([]graph.Scored, 0, 64)
	for i, s := range scores {
		v := graph.NodeID(i)
		if s <= 0 || (keep != nil && !keep(v)) {
			continue
		}
		out = append(out, graph.Scored{Node: v, Score: s})
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

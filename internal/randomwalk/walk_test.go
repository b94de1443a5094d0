package randomwalk

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kqr/internal/catgen"
	"kqr/internal/dblpgen"
	"kqr/internal/graph"
	"kqr/internal/relstore"
	"kqr/internal/tatgraph"
	"kqr/internal/testcorpus"
)

// scatterScores is the reference power iteration the kernel must
// reproduce bit for bit: each sweep pushes λ·p[u]/WeightSum(u) along
// u's edges in ascending u, then adds the restart mass. The preference
// total is summed in ascending node order.
func scatterScores(g *graph.Graph, pref map[graph.NodeID]float64, opts Options) ([]float64, int, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, 0, err
	}
	n := g.NumNodes()
	r := make([]float64, n)
	for v, w := range pref {
		r[v] = w
	}
	total := 0.0
	for _, w := range r {
		total += w
	}
	for i := range r {
		r[i] /= total
	}

	p := make([]float64, n)
	copy(p, r)
	next := make([]float64, n)
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for u := 0; u < n; u++ {
			mass := p[u]
			if mass == 0 {
				continue
			}
			ws := g.WeightSum(graph.NodeID(u))
			if ws == 0 {
				dangling += mass
				continue
			}
			scale := opts.Damping * mass / ws
			g.Neighbors(graph.NodeID(u), func(v graph.NodeID, w float64) bool {
				next[v] += scale * w
				return true
			})
		}
		restart := (1 - opts.Damping) + opts.Damping*dangling
		diff := 0.0
		for i := range next {
			next[i] += restart * r[i]
			diff += math.Abs(next[i] - p[i])
		}
		p, next = next, p
		if diff < opts.Epsilon {
			iters++
			break
		}
	}
	return p, iters, nil
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func preference(tg *tatgraph.Graph, mode PreferenceMode, t0 graph.NodeID) map[graph.NodeID]float64 {
	if mode == Contextual {
		return tg.ContextPreference(t0)
	}
	return tg.SelfPreference(t0)
}

func oracleCorpora(t *testing.T) map[string]*tatgraph.Graph {
	t.Helper()
	dc, err := dblpgen.Generate(dblpgen.Config{Seed: 3, Topics: 4, Confs: 8, Authors: 60, Papers: 150})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := catgen.Generate(catgen.Config{Seed: 3, Domains: 4, Brands: 8, Categories: 4, Products: 100})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*tatgraph.Graph{}
	for name, db := range map[string]*relstore.Database{"dblpgen": dc.DB, "catgen": cc.DB} {
		tg, err := tatgraph.Build(db, tatgraph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tg
	}
	return out
}

// The kernel equals the scatter oracle bit for bit — every score and
// every iteration count — for every term of a dblpgen and a catgen
// corpus, in both preference modes, in four-lane blocks; and for the
// contextual walk one lane at a time. Narrower blocks (1–3 live lanes)
// also run over a prefix of the terms in every setting, including an
// Epsilon large enough that lanes of one block converge at different
// sweeps.
func TestKernelMatchesScatterOracle(t *testing.T) {
	staggered := false
	for name, tg := range oracleCorpora(t) {
		g := tg.CSR()
		terms := tg.TermNodeIDs()
		for _, c := range []struct {
			mode PreferenceMode
			opts Options
		}{{Contextual, Options{}}, {Individual, Options{}}, {Contextual, Options{Epsilon: 1e-4}}} {
			label := fmt.Sprintf("%s/%s/eps=%g", name, c.mode, c.opts.Epsilon)
			wantScores := make([][]float64, len(terms))
			wantIters := make([]int, len(terms))
			rs := make([][]graph.Scored, len(terms))
			for i, v := range terms {
				pref := preference(tg, c.mode, v)
				var err error
				if wantScores[i], wantIters[i], err = scatterScores(g, pref, c.opts); err != nil {
					t.Fatal(err)
				}
				if rs[i], err = restartVector(pref, g.NumNodes()); err != nil {
					t.Fatal(err)
				}
			}
			o, _ := c.opts.withDefaults()
			s := new(scratch)
			for width := 1; width <= lanes; width++ {
				span := len(terms)
				if width < lanes && (width > 1 || c.mode != Contextual || c.opts.Epsilon != 0) {
					span = min(span, 4*width)
				}
				for lo := 0; lo < span; lo += width {
					hi := min(lo+width, span)
					out := make([][]float64, hi-lo)
					for l := range out {
						out[l] = make([]float64, g.NumNodes())
					}
					iters := s.run(g, rs[lo:hi], o, out)
					for l := range out {
						i := lo + l
						if at := sameBits(out[l], wantScores[i]); at >= 0 {
							t.Fatalf("%s: term %d in a %d-lane block differs from the oracle at node %d: %v vs %v",
								label, terms[i], hi-lo, at, out[l][at], wantScores[i][at])
						}
						if iters[l] != wantIters[i] {
							t.Fatalf("%s: term %d ran %d sweeps, oracle %d", label, terms[i], iters[l], wantIters[i])
						}
						staggered = staggered || iters[l] != iters[0]
					}
				}
			}
		}
	}
	if !staggered {
		t.Fatal("no block had lanes converging at different sweeps")
	}
}

// A dangling (isolated) node carrying restart mass, walked in a block
// beside connected starts, still matches the oracle.
func TestKernelDanglingNodeMatchesOracle(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode()
	}
	for _, e := range [][3]float64{{1, 2, 0.7}, {2, 3, 1.3}, {3, 4, 0.2}, {4, 1, 2.1}, {1, 3, 0.9}} {
		if err := b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build() // nodes 0 and 5 are isolated
	prefs := []map[graph.NodeID]float64{{0: 1}, {0: 0.3, 2: 0.7}, {5: 2, 4: 1}, {1: 1}}
	o, _ := Options{}.withDefaults()
	rs := make([][]graph.Scored, len(prefs))
	out := make([][]float64, len(prefs))
	for i, pref := range prefs {
		var err error
		if rs[i], err = restartVector(pref, g.NumNodes()); err != nil {
			t.Fatal(err)
		}
		out[i] = make([]float64, g.NumNodes())
	}
	iters := new(scratch).run(g, rs, o, out)
	for i, pref := range prefs {
		want, wantIters, err := scatterScores(g, pref, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if at := sameBits(out[i], want); at >= 0 || iters[i] != wantIters {
			t.Fatalf("pref %v: kernel %v (%d sweeps), oracle %v (%d sweeps)", pref, out[i], iters[i], want, wantIters)
		}
	}
}

// Property: on random graphs whose hubs merge fractional parallel
// edges — where the two directions of an edge would differ in the last
// bit under an unstable merge — and that keep a few isolated nodes, a
// full block of random restart vectors matches the oracle.
func TestKernelMatchesOracleOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 30
		b := graph.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode()
		}
		for i := 0; i < 300; i++ {
			u, v := graph.NodeID(rng.Intn(3)), graph.NodeID(rng.Intn(n-3))
			if u != v {
				if err := b.AddEdge(u, v, 0.1+rng.Float64()); err != nil {
					return false
				}
			}
		}
		g := b.Build() // nodes n-3..n-1 are isolated
		o, _ := Options{}.withDefaults()
		prefs := make([]map[graph.NodeID]float64, lanes)
		rs := make([][]graph.Scored, lanes)
		out := make([][]float64, lanes)
		for l := range prefs {
			prefs[l] = map[graph.NodeID]float64{}
			for k := 0; k < 3; k++ {
				prefs[l][graph.NodeID(rng.Intn(n))] = rng.Float64() + 0.01
			}
			rs[l], _ = restartVector(prefs[l], n)
			out[l] = make([]float64, n)
		}
		iters := new(scratch).run(g, rs, o, out)
		for l, pref := range prefs {
			want, wantIters, err := scatterScores(g, pref, Options{})
			if err != nil || sameBits(out[l], want) >= 0 || iters[l] != wantIters {
				t.Logf("seed %d lane %d: kernel differs from the oracle", seed, l)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Precompute walks each distinct node once, however often it repeats
// in the input, and caches the rows the oracle's scores rank to.
func TestPrecomputeDuplicatesMatchOracle(t *testing.T) {
	tg := fixtureGraph(t)
	terms := tg.TermNodeIDs()
	a, b, c := terms[0], terms[1], terms[2]
	ex := NewExtractor(tg, Contextual, Options{})
	if err := ex.Precompute(context.Background(), []graph.NodeID{a, a, b, a, c, b, c}); err != nil {
		t.Fatal(err)
	}
	if ex.Walks() != 3 {
		t.Fatalf("ran %d walks for 3 distinct nodes", ex.Walks())
	}
	if ex.Cached() != 3 {
		t.Fatalf("cached %d rows for 3 distinct nodes", ex.Cached())
	}
	for _, v := range []graph.NodeID{a, b, c} {
		scores, _, err := scatterScores(tg.CSR(), tg.ContextPreference(v), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := ex.rank(v, scores)
		got, err := ex.SimilarNodes(v, maxKept)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: precomputed row differs from the oracle's", v)
		}
	}
}

// Two runs of the same walk give the same bits for every term: the
// restart normalization must not depend on map iteration order.
func TestScoresDeterministic(t *testing.T) {
	tg := oracleCorpora(t)["dblpgen"]
	for _, v := range tg.TermNodeIDs() {
		a, _, err := Scores(tg.CSR(), tg.ContextPreference(v), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Scores(tg.CSR(), tg.ContextPreference(v), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if at := sameBits(a, b); at >= 0 {
			t.Fatalf("term %d: two runs differ at node %d: %v vs %v", v, at, a[at], b[at])
		}
	}
}

// triangle + pendant: 0-1, 1-2, 2-0, 2-3.
func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode()
	}
	edges := [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestScoresSumToOne(t *testing.T) {
	g := smallGraph(t)
	scores, iters, err := Scores(g, map[graph.NodeID]float64{0: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("iters = %d", iters)
	}
	sum := 0.0
	for _, s := range scores {
		if s < 0 {
			t.Fatalf("negative score %v", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("scores sum to %v, want 1", sum)
	}
}

func TestIndividualWalkBiasesStart(t *testing.T) {
	g := smallGraph(t)
	scores, _, err := Scores(g, map[graph.NodeID]float64{0: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 4; v++ {
		if scores[0] <= scores[v] {
			t.Fatalf("start node score %v not maximal (node %d has %v)", scores[0], v, scores[v])
		}
	}
	// Node 3 (pendant, two hops away) must score lowest.
	if scores[3] >= scores[1] || scores[3] >= scores[2] {
		t.Fatalf("pendant node score %v should be smallest: %v", scores[3], scores)
	}
}

func TestDanglingNodeHandling(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode() // isolated node 0
	b.AddNode()
	b.AddNode()
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	scores, _, err := Scores(g, map[graph.NodeID]float64{0: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := scores[0] + scores[1] + scores[2]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("scores sum to %v with dangling restart, want 1", sum)
	}
	if scores[0] <= scores[1] {
		t.Fatal("isolated preferred node lost its restart mass")
	}
}

func TestScoresValidation(t *testing.T) {
	g := smallGraph(t)
	cases := []struct {
		name string
		pref map[graph.NodeID]float64
		opts Options
	}{
		{"empty pref", map[graph.NodeID]float64{}, Options{}},
		{"zero mass", map[graph.NodeID]float64{0: 0}, Options{}},
		{"negative pref", map[graph.NodeID]float64{0: -1}, Options{}},
		{"node out of range", map[graph.NodeID]float64{99: 1}, Options{}},
		{"bad damping", map[graph.NodeID]float64{0: 1}, Options{Damping: 1.5}},
		{"bad epsilon", map[graph.NodeID]float64{0: 1}, Options{Epsilon: -1}},
		{"bad maxiter", map[graph.NodeID]float64{0: 1}, Options{MaxIter: -3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Scores(g, c.pref, c.opts); err == nil {
				t.Fatal("want error")
			}
		})
	}
	if _, _, err := Scores(graph.NewBuilder().Build(), map[graph.NodeID]float64{0: 1}, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestConvergenceUnderDamping(t *testing.T) {
	g := smallGraph(t)
	// Lower damping converges in fewer iterations.
	_, fast, err := Scores(g, map[graph.NodeID]float64{0: 1}, Options{Damping: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	_, slow, err := Scores(g, map[graph.NodeID]float64{0: 1}, Options{Damping: 0.95, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if fast >= slow {
		t.Fatalf("damping 0.3 took %d iters, 0.95 took %d; want fewer", fast, slow)
	}
}

func TestTopNodes(t *testing.T) {
	scores := []float64{0.5, 0, 0.8, 0.3, 0.8}
	top := TopNodes(scores, 3, nil)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	// Ties (nodes 2 and 4 at 0.8) break by node id.
	if top[0].Node != 2 || top[1].Node != 4 || top[2].Node != 0 {
		t.Fatalf("order = %v", top)
	}
	odd := TopNodes(scores, 0, func(v graph.NodeID) bool { return v%2 == 1 })
	if len(odd) != 1 || odd[0].Node != 3 {
		t.Fatalf("filtered = %v", odd)
	}
}

// Property: scores are a probability distribution for any valid
// preference on a random connected graph.
func TestScoresDistributionProperty(t *testing.T) {
	f := func(seed int64, prefNode uint8) bool {
		b := graph.NewBuilder()
		const n = 12
		for i := 0; i < n; i++ {
			b.AddNode()
		}
		// Ring plus chords keyed by seed for connectivity.
		for i := 0; i < n; i++ {
			if err := b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1+float64((seed>>uint(i%8))&3)); err != nil {
				return false
			}
		}
		if err := b.AddEdge(graph.NodeID(seed%n+n)%n, graph.NodeID((seed/7)%n), 2); err != nil {
			// Self-loop attempts are fine to skip; graph stays a ring.
			_ = err
		}
		g := b.Build()
		scores, _, err := Scores(g, map[graph.NodeID]float64{graph.NodeID(int(prefNode) % n): 1}, Options{})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, s := range scores {
			if s < 0 || math.IsNaN(s) {
				return false
			}
			sum += s
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Extractor over the fixture corpus ---

func fixtureGraph(t *testing.T) *tatgraph.Graph {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func rankOf(t *testing.T, tg *tatgraph.Graph, list []graph.Scored, text string) int {
	t.Helper()
	for i, sn := range list {
		if tg.TermText(sn.Node) == text {
			return i
		}
	}
	return -1
}

// The paper's headline claim (Fig. 4): the contextual walk finds
// "probabilistic" as similar to "uncertain" even though they never
// co-occur in a title.
func TestContextualFindsPlantedSynonym(t *testing.T) {
	tg := fixtureGraph(t)
	start, ok := tg.TermNode("papers.title", "uncertain")
	if !ok {
		t.Fatal("missing start term")
	}
	ex := NewExtractor(tg, Contextual, Options{})
	list, err := ex.SimilarNodes(start, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no similar nodes")
	}
	pos := rankOf(t, tg, list, "probabilistic")
	if pos < 0 || pos > 4 {
		var got []string
		for _, sn := range list {
			got = append(got, tg.TermText(sn.Node))
		}
		t.Fatalf("probabilistic ranked %d in %v, want top-5", pos, got)
	}
	// Terms from the unrelated networks community must not appear.
	if p := rankOf(t, tg, list, "routing"); p >= 0 {
		t.Fatalf("routing leaked into similar terms at rank %d", p)
	}
}

func TestSimilarNodesSameClassOnly(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "uncertain")
	ex := NewExtractor(tg, Contextual, Options{})
	list, err := ex.SimilarNodes(start, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range list {
		if !tg.SameClass(sn.Node, start) {
			t.Fatalf("node %v (%s) crossed class", sn.Node, tg.DisplayLabel(sn.Node))
		}
		if sn.Node == start {
			t.Fatal("start node returned as its own similar term")
		}
	}
}

func TestSimilarAuthorsViaSharedContext(t *testing.T) {
	tg := fixtureGraph(t)
	start, ok := tg.TermNode("authors.name", "alice ames")
	if !ok {
		t.Fatal("missing author node")
	}
	ex := NewExtractor(tg, Contextual, Options{})
	list, err := ex.SimilarNodes(start, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rankOf(t, tg, list, "bob bell") < 0 {
		var got []string
		for _, sn := range list {
			got = append(got, tg.TermText(sn.Node))
		}
		t.Fatalf("bob bell not among similar authors: %v", got)
	}
}

func TestExtractorNormalization(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "xml")
	ex := NewExtractor(tg, Contextual, Options{})
	list, err := ex.SimilarNodes(start, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 || math.Abs(list[0].Score-1) > 1e-12 {
		t.Fatalf("top score = %v, want 1", list[0].Score)
	}
	for i := 1; i < len(list); i++ {
		if list[i].Score > list[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
}

func TestSimLookup(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "uncertain")
	ex := NewExtractor(tg, Contextual, Options{})
	if s, err := ex.Sim(start, start); err != nil || s != 1 {
		t.Fatalf("Sim(self) = %v, %v", s, err)
	}
	other, _ := tg.TermNode("papers.title", "probabilistic")
	s, err := ex.Sim(start, other)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s > 1 {
		t.Fatalf("Sim(uncertain, probabilistic) = %v", s)
	}
	unrelated, _ := tg.TermNode("papers.title", "routing")
	if s, _ := ex.Sim(start, unrelated); s != 0 {
		t.Fatalf("Sim(uncertain, routing) = %v, want 0", s)
	}
}

func TestCacheStability(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "uncertain")
	ex := NewExtractor(tg, Contextual, Options{})
	a, err := ex.SimilarNodes(start, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.SimilarNodes(start, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("cached call changed length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached result differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPrecompute(t *testing.T) {
	tg := fixtureGraph(t)
	a, _ := tg.TermNode("papers.title", "xml")
	b, _ := tg.TermNode("papers.title", "uncertain")
	ex := NewExtractor(tg, Contextual, Options{})
	if err := ex.Precompute(context.Background(), []graph.NodeID{a, b}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SimilarNodes(a, 5); err != nil {
		t.Fatal(err)
	}
}

// Ablation check behind Fig. 4: the contextual walk must rank the
// planted synonym better than (or equal to) the individual walk does,
// relative to direct co-occurring terms.
func TestContextualBeatsIndividualOnSynonym(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "uncertain")
	ctx := NewExtractor(tg, Contextual, Options{})
	ind := NewExtractor(tg, Individual, Options{})
	cl, err := ctx.SimilarNodes(start, 20)
	if err != nil {
		t.Fatal(err)
	}
	il, err := ind.SimilarNodes(start, 20)
	if err != nil {
		t.Fatal(err)
	}
	cRank := rankOf(t, tg, cl, "probabilistic")
	iRank := rankOf(t, tg, il, "probabilistic")
	if cRank < 0 {
		t.Fatal("contextual walk missed the synonym entirely")
	}
	if iRank >= 0 && cRank > iRank {
		t.Fatalf("contextual rank %d worse than individual rank %d", cRank, iRank)
	}
}

package main

import (
	"context"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"kqr"
	"kqr/internal/dblpgen"
)

// warmEngine opens and warms a mending engine over the benchmark's
// corpus for seed, the way setUp does.
func warmEngine(t *testing.T, seed int64) (*dblpgen.Corpus, *kqr.Engine) {
	t.Helper()
	c, err := dblpgen.Generate(corpusConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(kqr.WrapDatabase(c.DB), kqr.Options{Mend: true, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c, eng
}

func TestStreamsAreSeeded(t *testing.T) {
	c, eng := warmEngine(t, 11)
	g1, err := NewGenerator(c, eng, 11)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(c, eng, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Head(2000, 11), g2.Head(2000, 11)) {
		t.Error("head streams differ for the same seed")
	}
	if !reflect.DeepEqual(g1.Tail(2000, 11), g2.Tail(2000, 11)) {
		t.Error("tail streams differ for the same seed")
	}
	g3, err := NewGenerator(c, eng, 12)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g1.Head(2000, 11), g3.Head(2000, 12)) {
		t.Error("head streams equal for different seeds")
	}
	if reflect.DeepEqual(g1.Tail(2000, 11), g3.Tail(2000, 12)) {
		t.Error("tail streams equal for different seeds")
	}
}

func TestStreamMix(t *testing.T) {
	c, eng := warmEngine(t, 11)
	g, err := NewGenerator(c, eng, 11)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	kinds := map[Kind]int{}
	faulted, distinct := 0, map[string]bool{}
	for _, r := range g.Head(n, 3) {
		kinds[r.Kind]++
		distinct[r.Path] = true
		if r.Faulted {
			faulted++
		}
	}
	if f := float64(kinds[KindSimilar]) / n; f < 0.08 || f > 0.12 {
		t.Errorf("head: %.3f /api/similar, want about 0.10", f)
	}
	if f := float64(faulted) / n; f < 0.06 || f > 0.12 {
		t.Errorf("head: %.3f faulted, want about 0.10", f)
	}
	// Zipf skew: far fewer distinct requests than requests.
	if len(distinct) > n/10 {
		t.Errorf("head: %d distinct requests of %d, want a skewed stream", len(distinct), n)
	}
	kinds = map[Kind]int{}
	for _, r := range g.Tail(n, 3) {
		kinds[r.Kind]++
		if r.Kind == KindReformulate && r.K != 5 && r.K != 10 {
			t.Fatalf("tail: k=%d", r.K)
		}
		if len(r.Terms) < 2 || len(r.Terms) > 4 {
			t.Fatalf("tail: %d terms in %q", len(r.Terms), r.Terms)
		}
	}
	if f := float64(kinds[KindSearch]) / n; f < 0.02 || f > 0.04 {
		t.Errorf("tail: %.3f /api/search, want about 0.03", f)
	}
}

func TestQueriesResolve(t *testing.T) {
	c, eng := warmEngine(t, 5)
	g, err := NewGenerator(c, eng, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range [][][]string{g.head, g.tail} {
		for _, q := range pool {
			if _, err := eng.Reformulate(q, 5); err != nil {
				t.Errorf("clean query %q: %v", q, err)
			}
		}
	}
	for i, q := range g.faulty {
		if q == nil {
			continue
		}
		res, err := eng.Mend(q)
		if err != nil || !res.Changed {
			t.Errorf("fault %q of %q: mend changed=%v err=%v", q, g.head[i], res.Changed, err)
		}
		if _, _, err := eng.ReformulateMended(q, 5); err != nil {
			t.Errorf("fault %q of %q: %v", q, g.head[i], err)
		}
	}
}

// TestPathsQuoteTerms checks that a multi-word term reaches the server
// as one term.
func TestPathsQuoteTerms(t *testing.T) {
	terms := []string{"christian s. jensen", "spatial"}
	r := newRequest(KindReformulate, terms, 5, false)
	u, err := url.Parse(r.Path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kqr.ParseQuery(u.Query().Get("q"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, terms) {
		t.Errorf("parsed %q, want %q", got, terms)
	}
	if !strings.HasPrefix(r.Path, "/api/reformulate?") || u.Query().Get("k") != "5" {
		t.Errorf("path %q", r.Path)
	}
}

func TestCheckBody(t *testing.T) {
	req := planRequest{Kind: KindReformulate, K: 2}
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"query":["a","b"],"suggestions":[{"terms":["a","c"],"score":0.5},{"terms":["c","b"],"score":0.25}]}`, true},
		{`{"query":["a","b"],"suggestions":[{"terms":["a","c"],"score":0.25},{"terms":["c","b"],"score":0.5}]}`, false},
		{`{"query":["a","b"],"suggestions":[{"terms":["a","b"],"score":0.5}]}`, false},
		{`{"query":["a","bx"],"corrected_query":"a b","suggestions":[{"terms":["a","b"],"score":0.5}]}`, false},
		{`{"query":["a","b"],"suggestions":[{"terms":["a","c"],"score":1},{"terms":["c","b"],"score":1},{"terms":["c","c"],"score":1}]}`, false},
		{`{"query":`, false},
	} {
		if _, err := checkBody(req, []byte(tc.body)); (err == nil) != tc.ok {
			t.Errorf("checkBody(%s) = %v, want ok=%v", tc.body, err, tc.ok)
		}
	}
	// A rounding-level inversion between tied scores is counted, not
	// failed.
	inv, err := checkBody(req, []byte(`{"query":["a","b"],"suggestions":[{"terms":["a","c"],"score":2.4938795666748526e-05},{"terms":["c","b"],"score":2.493879566674853e-05}]}`))
	if err != nil || inv != 1 {
		t.Errorf("tied scores: inversions=%d err=%v, want 1 and nil", inv, err)
	}
}

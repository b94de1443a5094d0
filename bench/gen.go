package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"kqr"
	"kqr/internal/dblpgen"
	"kqr/internal/eval"
)

// Kind is the endpoint a generated request targets.
type Kind string

const (
	KindReformulate Kind = "reformulate"
	KindSimilar     Kind = "similar"
	KindSearch      Kind = "search"
)

// Request is one generated request. Terms are the query terms as sent,
// including any injected fault; Path is the URL the load generator
// requests.
type Request struct {
	Kind    Kind     `json:"kind"`
	Terms   []string `json:"terms"`
	K       int      `json:"k"`
	Faulted bool     `json:"faulted,omitempty"`
	Path    string   `json:"path"`
}

func newRequest(kind Kind, terms []string, k int, faulted bool) Request {
	r := Request{Kind: kind, Terms: terms, K: k, Faulted: faulted}
	// Suggestion.String quotes multi-word terms (author and conference
	// names) so the server's parser recovers them as single terms.
	q := url.QueryEscape(kqr.Suggestion{Terms: terms}.String())
	switch kind {
	case KindSimilar:
		r.Path = "/api/similar?term=" + url.QueryEscape(terms[0]) + "&k=" + strconv.Itoa(k)
	case KindSearch:
		r.Path = "/api/search?q=" + q
	default:
		r.Path = "/api/reformulate?q=" + q + "&k=" + strconv.Itoa(k)
	}
	return r
}

// Generator draws seeded request streams over one corpus: a Zipf-skewed
// head stream with injected typos, run-ons and splits, and a uniform
// tail stream of longer queries.
type Generator struct {
	head   [][]string // clean queries; the index is the Zipf rank
	faulty [][]string // faulty[i] is head[i] with one injected fault, or nil
	tail   [][]string // clean queries of 2–4 terms
}

// headPoolSize and tailPerLength bound the query pools drawn from the
// corpus before filtering.
const (
	headPoolSize  = 400
	tailPerLength = 1000
)

// NewGenerator builds the query pools for corpus c. eng must be a
// mending engine opened over c: the pools keep only queries whose terms
// all resolve, and only injected faults that the mender sees as faults
// and still repairs into an answerable query, so every generated
// request has a 200 answer.
func NewGenerator(c *dblpgen.Corpus, eng *kqr.Engine, seed int64) (*Generator, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{}

	titles, err := eval.TitleQueries(c, headPoolSize/4, 3)
	if err != nil {
		return nil, err
	}
	candidates := append(eval.MixedQueries(c, headPoolSize, seed), titles...)
	g.head = cleanQueries(eng, candidates)
	if len(g.head) < headPoolSize/2 {
		return nil, fmt.Errorf("generator: only %d resolvable head queries", len(g.head))
	}
	// The Zipf rank of a query depends on the seed, not on the order
	// the corpus helpers return.
	rng.Shuffle(len(g.head), func(i, j int) { g.head[i], g.head[j] = g.head[j], g.head[i] })

	repaired := func(q []string) bool {
		res, err := eng.Mend(q)
		if err != nil || !res.Changed {
			return false
		}
		_, _, err = eng.ReformulateMended(q, 5)
		return err == nil
	}
	g.faulty = make([][]string, len(g.head))
	faults := 0
	for i, q := range g.head {
		for try := 0; try < 8; try++ {
			if f := injectFault(rng, q, (i+try)%3); f != nil && repaired(f) {
				g.faulty[i] = f
				faults++
				break
			}
		}
	}
	if faults < len(g.head)/4 {
		return nil, fmt.Errorf("generator: only %d of %d head queries took a repairable fault", faults, len(g.head))
	}

	for length := 2; length <= 4; length++ {
		qs, err := eval.RandomQueries(c, tailPerLength, length, seed+int64(length))
		if err != nil {
			return nil, err
		}
		g.tail = append(g.tail, cleanQueries(eng, qs)...)
	}
	if len(g.tail) < tailPerLength {
		return nil, fmt.Errorf("generator: only %d resolvable tail queries", len(g.tail))
	}
	return g, nil
}

// cleanQueries lower-cases and deduplicates qs and keeps the queries
// the engine answers unmended.
func cleanQueries(eng *kqr.Engine, qs [][]string) [][]string {
	seen := make(map[string]bool, len(qs))
	var out [][]string
	for _, q := range qs {
		lq := make([]string, len(q))
		for i, t := range q {
			lq[i] = strings.ToLower(t)
		}
		key := kqr.Suggestion{Terms: lq}.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if res, err := eng.Mend(lq); err != nil || res.Changed {
			continue
		}
		if _, err := eng.Reformulate(lq, 5); err != nil {
			continue
		}
		out = append(out, lq)
	}
	return out
}

// Head draws n requests of interactive head traffic: Zipf-skewed over
// the head pool, 90% /api/reformulate with k=5 (about one in nine
// carrying an injected fault, so 10% of all requests) and 10%
// /api/similar.
func (g *Generator) Head(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(g.head)-1))
	out := make([]Request, 0, n)
	for len(out) < n {
		i := int(zipf.Uint64())
		q := g.head[i]
		switch r := rng.Float64(); {
		case r < 0.10:
			out = append(out, newRequest(KindSimilar, []string{q[rng.Intn(len(q))]}, 10, false))
		case r < 0.20 && g.faulty[i] != nil:
			out = append(out, newRequest(KindReformulate, g.faulty[i], 5, true))
		default:
			out = append(out, newRequest(KindReformulate, q, 5, false))
		}
	}
	return out
}

// Tail draws n requests of tail traffic: uniform over the 2–4-term
// pool, k drawn from {5, 10}, and about 3% /api/search.
func (g *Generator) Tail(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, 0, n)
	for len(out) < n {
		q := g.tail[rng.Intn(len(g.tail))]
		if rng.Float64() < 0.03 {
			out = append(out, newRequest(KindSearch, q, 0, false))
			continue
		}
		out = append(out, newRequest(KindReformulate, q, 5+5*rng.Intn(2), false))
	}
	return out
}

// injectFault applies one fault of the given kind to a copy of q —
// 0 a single-character typo, 1 two adjacent words run together, 2 one
// word split in two — touching only single-word terms. It returns nil
// when the kind cannot apply to q.
func injectFault(rng *rand.Rand, q []string, kind int) []string {
	word := func(t string) bool { return !strings.ContainsAny(t, " \t") }
	switch kind {
	case 1:
		var at []int
		for i := 0; i+1 < len(q); i++ {
			if word(q[i]) && word(q[i+1]) {
				at = append(at, i)
			}
		}
		if len(at) == 0 {
			return nil
		}
		i := at[rng.Intn(len(at))]
		out := append(append([]string{}, q[:i]...), q[i]+q[i+1])
		return append(out, q[i+2:]...)
	case 2:
		var at []int
		for i, t := range q {
			if word(t) && len([]rune(t)) >= 5 {
				at = append(at, i)
			}
		}
		if len(at) == 0 {
			return nil
		}
		i := at[rng.Intn(len(at))]
		r := []rune(q[i])
		cut := 2 + rng.Intn(len(r)-3)
		out := append(append([]string{}, q[:i]...), string(r[:cut]), string(r[cut:]))
		return append(out, q[i+1:]...)
	default:
		var at []int
		for i, t := range q {
			if word(t) && len([]rune(t)) >= 4 {
				at = append(at, i)
			}
		}
		if len(at) == 0 {
			return nil
		}
		i := at[rng.Intn(len(at))]
		out := append([]string{}, q...)
		out[i] = typo(rng, q[i])
		return out
	}
}

// typo applies one random edit to w: substitution, deletion, insertion
// or transposition of adjacent letters.
func typo(rng *rand.Rand, w string) string {
	r := []rune(w)
	i := rng.Intn(len(r) - 1)
	letter := rune('a' + rng.Intn(26))
	switch rng.Intn(4) {
	case 0:
		if r[i] == letter {
			letter = 'a' + (letter-'a'+1)%26
		}
		r[i] = letter
	case 1:
		r = append(r[:i], r[i+1:]...)
	case 2:
		r = append(r[:i], append([]rune{letter}, r[i:]...)...)
	default:
		r[i], r[i+1] = r[i+1], r[i]
	}
	return string(r)
}

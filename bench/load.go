package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kqr"
)

// loadPlan is what the serving process hands the load process: the
// generated requests and the phase schedule.
type loadPlan struct {
	Addr    string        `json:"addr"`
	Senders int           `json:"senders"`
	Rate    float64       `json:"rate"`
	Warmup  time.Duration `json:"warmup_ns"`
	// Rounds alternate an Open-long open-loop segment with a
	// Closed-long closed-loop segment, so both phases sample the whole
	// run rather than one stretch of it.
	Rounds int           `json:"rounds"`
	Open   time.Duration `json:"open_ns"`
	Closed time.Duration `json:"closed_ns"`
	Writer bool          `json:"writer"` // ingest batches beside the reads
	Seed   int64         `json:"seed"`
	// Confs are the conferences ingest batches go to (see typicalConfs).
	Confs []int64 `json:"confs"`
	// RequestsFile holds the generated requests as a JSON array.
	RequestsFile string `json:"requests_file"`
}

// planRequest is the part of a Request the load process needs.
type planRequest struct {
	Kind Kind   `json:"kind"`
	K    int    `json:"k"`
	Path string `json:"path"`
}

// counts tallies one phase's requests.
type counts struct {
	Sent   int `json:"sent"`
	OK     int `json:"succeeded"`
	Failed int `json:"failed"`
}

func (c *counts) add(o counts) { c.Sent += o.Sent; c.OK += o.OK; c.Failed += o.Failed }

// summary is a latency distribution in microseconds: N samples, the
// median and p90, the windowed p99 over Windows windows (see
// summarize), and the p99 of all samples pooled.
type summary struct {
	N         int     `json:"n"`
	Windows   int     `json:"windows"`
	P50       float64 `json:"p50_us"`
	P90       float64 `json:"p90_us"`
	P99       float64 `json:"p99_us"`
	PooledP99 float64 `json:"pooled_p99_us"`
}

// loadReport is what the load process prints.
type loadReport struct {
	Phases map[string]counts `json:"phases"`
	// Reformulate and Read are the open-loop phase's latencies timed
	// from each request's due time; Late is how far the generator sent
	// each request after it was due and its sender was free, Service
	// the send-to-answer time.
	Reformulate summary `json:"reformulate"`
	Read        summary `json:"read"`
	Late        summary `json:"late"`
	Service     summary `json:"service"`
	// GeneratorBound flags a run whose send lateness p99 exceeds the
	// service p99: its latencies measure the generator, not the server.
	GeneratorBound bool    `json:"generator_bound"`
	Goodput        float64 `json:"goodput_qps"`
	// OpenSpans are the open-loop segments' wall-clock start and end in
	// Unix nanoseconds.
	OpenSpans [][2]int64 `json:"open_spans"`
	// Freshness is each writer batch's freshness in seconds.
	Freshness       []float64 `json:"freshness_s"`
	ScoreInversions int64     `json:"score_inversions"`
	Errors          []string  `json:"errors,omitempty"`
}

// loader runs a plan against the server.
type loader struct {
	plan   loadPlan
	base   string
	client *http.Client
	reqs   []planRequest
	next   atomic.Int64 // index of the next request in reqs
	// checkers holds one checker, and so one connection, per sender.
	checkers []*checker
	// inversions counts rounding-level score inversions (see scoreSlack)
	// in distinct checked bodies.
	inversions atomic.Int64
	seed       maphash.Seed

	mu     sync.Mutex
	errors []string
}

func (l *loader) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.errors) < 20 {
		l.errors = append(l.errors, fmt.Sprintf(format, args...))
	}
}

// runLoad is the load process's entry point: read the plan, run the
// phases, print the report as JSON on stdout.
func runLoad(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var plan loadPlan
	if err := json.Unmarshal(raw, &plan); err != nil {
		return fmt.Errorf("load plan: %w", err)
	}
	if raw, err = os.ReadFile(plan.RequestsFile); err != nil {
		return err
	}
	var reqs []planRequest
	if err := json.Unmarshal(raw, &reqs); err != nil {
		return fmt.Errorf("load requests: %w", err)
	}
	if len(reqs) == 0 {
		return fmt.Errorf("load requests: %s is empty", plan.RequestsFile)
	}
	// The load process's own garbage collection would land in the
	// latencies it measures; its heap stays small, so collect rarely.
	debug.SetGCPercent(1000)
	l := &loader{
		plan: plan,
		reqs: reqs,
		base: "http://" + plan.Addr,
		// The writer's client: one connection, beside the senders'.
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true},
		},
		seed: maphash.MakeSeed(),
	}
	for i := 0; i < l.senders(); i++ {
		l.checkers = append(l.checkers, &checker{l: l, w: wire{addr: plan.Addr}, seen: map[uint64]bool{}})
	}
	rep := loadReport{Phases: map[string]counts{}}

	stop := make(chan struct{})
	type written struct {
		fresh []float64
		c     counts
	}
	var writerDone chan written
	if plan.Writer {
		writerDone = make(chan written, 1)
		go func() {
			fresh, c := l.writeUntil(stop)
			writerDone <- written{fresh, c}
		}()
	}
	warm := l.openLoop(plan.Warmup)
	rep.Phases["warmup"] = warm.counts
	var open samples
	var closed counts
	var rates []float64
	for r := 0; r < plan.Rounds; r++ {
		from := time.Now().UnixNano()
		seg := l.openLoop(plan.Open)
		rep.OpenSpans = append(rep.OpenSpans, [2]int64{from, time.Now().UnixNano()})
		open.append(&seg)
		c, rs := l.closedLoop(plan.Closed)
		closed.add(c)
		rates = append(rates, rs...)
	}
	rep.Phases["open"] = open.counts
	rep.Phases["closed"] = closed
	rep.Reformulate = summarize(open.series(true))
	rep.Read = summarize(open.series(false))
	rep.Late = summarize(open.late)
	rep.Service = summarize(open.service)
	rep.GeneratorBound = rep.Late.P99 > rep.Service.P99
	// The median over windows: a short stall of the machine moves one
	// window rather than the run's figure.
	rep.Goodput = median(rates)
	if plan.Writer {
		close(stop)
		w := <-writerDone
		rep.Freshness = w.fresh
		rep.Phases["writer"] = w.c
	}
	rep.ScoreInversions = l.inversions.Load()
	rep.Errors = l.errors
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// samples collects one phase's per-request timings in nanoseconds.
// lat is indexed by the request's place in the schedule (-1 when it
// failed), so windows of it are windows of time.
type samples struct {
	counts
	lat           []int64
	reformulate   []bool
	late, service []int64
}

// append adds a later segment's samples.
func (s *samples) append(o *samples) {
	s.counts.add(o.counts)
	s.lat = append(s.lat, o.lat...)
	s.reformulate = append(s.reformulate, o.reformulate...)
	s.late = append(s.late, o.late...)
	s.service = append(s.service, o.service...)
}

// series returns the latencies of the succeeded requests (only the
// reformulations when reformOnly) in schedule order.
func (s *samples) series(reformOnly bool) []int64 {
	var out []int64
	for i, v := range s.lat {
		if v >= 0 && (s.reformulate[i] || !reformOnly) {
			out = append(out, v)
		}
	}
	return out
}

// senders is how many goroutines (and connections) send reads: one per
// CPU, less the writer's when it runs beside them.
func (l *loader) senders() int {
	n := l.plan.Senders
	if l.plan.Writer && n > 1 {
		n--
	}
	return n
}

// openLoop sends plan.Rate requests per second for d on a fixed
// schedule, each sender taking every senders()-th due time, and times
// every request from when it was due.
func (l *loader) openLoop(d time.Duration) samples {
	n := int(l.plan.Rate * d.Seconds())
	if n == 0 {
		return samples{}
	}
	interval := float64(time.Second) / l.plan.Rate
	base := l.next.Add(int64(n)) - int64(n)
	start := time.Now().Add(2 * time.Millisecond)
	ns := l.senders()
	all := samples{lat: make([]int64, n), reformulate: make([]bool, n)}
	parts := make([]samples, ns)
	var wg sync.WaitGroup
	for s := 0; s < ns; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// The sender sleeps in nanosleep(2) (see sleepUntil); locked to
			// its thread it keeps that thread when the sleep returns.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c := l.checkers[s]
			p := &parts[s]
			var free time.Time // when this sender's previous request ended
			for i := s; i < n; i += ns {
				req := l.request(base + int64(i))
				due := start.Add(time.Duration(float64(i) * interval))
				sleepUntil(due)
				sent := time.Now()
				ok := c.do(req)
				end := time.Now()
				p.Sent++
				// Each sender writes only its own indices of all.
				all.reformulate[i] = req.Kind == KindReformulate
				all.lat[i] = -1
				if ok {
					p.OK++
					all.lat[i] = int64(end.Sub(due))
				} else {
					p.Failed++
				}
				// Waiting for the previous request is queueing, which the
				// latency rightly includes; only the time past both the
				// due time and the previous answer is the generator's own.
				ready := due
				if free.After(ready) {
					ready = free
				}
				p.late = append(p.late, int64(sent.Sub(ready)))
				p.service = append(p.service, int64(end.Sub(sent)))
				free = end
			}
		}(s)
	}
	wg.Wait()
	for _, p := range parts {
		all.counts.add(p.counts)
		all.late = append(all.late, p.late...)
		all.service = append(all.service, p.service...)
	}
	return all
}

// goodputWindow is the width of the windows the closed-loop phase
// counts answers in.
const goodputWindow = 250 * time.Millisecond

// closedLoop sends back-to-back from every sender for d and returns the
// counts and the 200-OK answers per second in each goodputWindow.
func (l *loader) closedLoop(d time.Duration) (counts, []float64) {
	windows := int(d / goodputWindow)
	if windows < 1 {
		return counts{}, nil
	}
	ns := l.senders()
	parts := make([]counts, ns)
	ok := make([][]int, ns) // per sender, answers per window
	start := time.Now()
	deadline := start.Add(time.Duration(windows) * goodputWindow)
	var wg sync.WaitGroup
	for s := 0; s < ns; s++ {
		wg.Add(1)
		ok[s] = make([]int, windows)
		go func(s int) {
			defer wg.Done()
			c := l.checkers[s]
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				parts[s].Sent++
				if !c.do(l.request(l.next.Add(1) - 1)) {
					parts[s].Failed++
					continue
				}
				parts[s].OK++
				if w := int(time.Since(start) / goodputWindow); w < windows {
					ok[s][w]++
				}
			}
		}(s)
	}
	wg.Wait()
	var all counts
	for _, p := range parts {
		all.add(p)
	}
	rates := make([]float64, windows)
	for w := range rates {
		for s := range ok {
			rates[w] += float64(ok[s][w])
		}
		rates[w] /= goodputWindow.Seconds()
	}
	return all, rates
}

func (l *loader) request(i int64) planRequest {
	return l.reqs[i%int64(len(l.reqs))]
}

// checker sends one sender's requests over its own connection and
// checks every 200 body, skipping bodies it has already checked for
// the same request.
type checker struct {
	l    *loader
	w    wire
	buf  bytes.Buffer
	seen map[uint64]bool
}

// do sends req and reports whether it answered 200 with a valid body.
func (c *checker) do(req planRequest) bool {
	status, err := c.w.get(req.Path, &c.buf)
	if err != nil {
		c.l.fail("%s: %v", req.Path, err)
		return false
	}
	if status != http.StatusOK {
		c.l.fail("%s: status %d: %s", req.Path, status, strings.TrimSpace(c.buf.String()))
		return false
	}
	var h maphash.Hash
	h.SetSeed(c.l.seed)
	h.WriteString(req.Path)
	h.Write(c.buf.Bytes())
	key := h.Sum64()
	if c.seen[key] {
		return true
	}
	inv, err := checkBody(req, c.buf.Bytes())
	if err != nil {
		c.l.fail("%s: %v", req.Path, err)
		return false
	}
	c.l.inversions.Add(int64(inv))
	c.seen[key] = true
	return true
}

// wire is one keep-alive HTTP/1.1 connection driven from the sender's
// own goroutine: it writes the request and parses the answer itself,
// without the per-connection goroutines and pool of net/http's
// transport, so the load process spends little of the CPU it shares
// with the server.
type wire struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
}

// get sends GET path and reads the answer's body into body. A failed
// exchange on a kept-alive connection (the server may have closed it
// while idle) is retried once on a fresh one.
func (w *wire) get(path string, body *bytes.Buffer) (int, error) {
	status, err := w.roundTrip(path, body)
	if err != nil {
		w.close()
		status, err = w.roundTrip(path, body)
	}
	return status, err
}

func (w *wire) roundTrip(path string, body *bytes.Buffer) (int, error) {
	if w.c == nil {
		c, err := net.Dial("tcp", w.addr)
		if err != nil {
			return 0, err
		}
		w.c, w.br = c, bufio.NewReaderSize(c, 16<<10)
	}
	w.out = append(append(append(w.out[:0], "GET "...), path...), " HTTP/1.1\r\nHost: kqr\r\n\r\n"...)
	if _, err := w.c.Write(w.out); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		return 0, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.Close {
		w.close()
	}
	return resp.StatusCode, nil
}

func (w *wire) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// reformulateBody is the part of the /api/reformulate answer the
// checks read.
type reformulateBody struct {
	Query          []string `json:"query"`
	CorrectedQuery string   `json:"corrected_query"`
	Suggestions    []struct {
		Terms []string `json:"terms"`
		Score float64  `json:"score"`
	} `json:"suggestions"`
}

// scoreSlack is the relative amount by which a suggestion's score may
// exceed its predecessor's. Mathematically tied paths — a repeated
// query term makes symmetric substitutions — can leave the decoder in
// either order with scores an ulp apart; checkBody counts those
// inversions instead of failing them.
const scoreSlack = 1e-12

// checkBody checks a 200 body: it decodes; a reformulation has at most
// k suggestions, scores that never increase beyond rounding, and none
// equal to the (mended) query; a similar-terms list has at most k
// entries. It returns the number of rounding-level score inversions.
func checkBody(req planRequest, body []byte) (inversions int, err error) {
	switch req.Kind {
	case KindReformulate:
		var b reformulateBody
		if err := json.Unmarshal(body, &b); err != nil {
			return inversions, fmt.Errorf("decoding reformulation: %w", err)
		}
		if len(b.Suggestions) > req.K {
			return inversions, fmt.Errorf("%d suggestions for k=%d", len(b.Suggestions), req.K)
		}
		query := b.Query
		if b.CorrectedQuery != "" {
			var err error
			if query, err = kqr.ParseQuery(b.CorrectedQuery); err != nil {
				return inversions, fmt.Errorf("corrected query %q: %w", b.CorrectedQuery, err)
			}
		}
		for i, s := range b.Suggestions {
			if i > 0 && s.Score > b.Suggestions[i-1].Score {
				prev := b.Suggestions[i-1].Score
				if s.Score > prev*(1+scoreSlack) {
					return inversions, fmt.Errorf("suggestion %d scores %v above its predecessor's %v", i, s.Score, prev)
				}
				inversions++
			}
			if slices.Equal(s.Terms, query) {
				return inversions, fmt.Errorf("suggestion %d repeats the query %q", i, query)
			}
		}
	case KindSimilar:
		var b struct {
			Terms []json.RawMessage `json:"terms"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return inversions, fmt.Errorf("decoding similar terms: %w", err)
		}
		if len(b.Terms) > req.K {
			return inversions, fmt.Errorf("%d similar terms for k=%d", len(b.Terms), req.K)
		}
	case KindSearch:
		var b struct {
			Total   int               `json:"total"`
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return inversions, fmt.Errorf("decoding search results: %w", err)
		}
		if len(b.Results) > b.Total {
			return inversions, fmt.Errorf("%d results above total %d", len(b.Results), b.Total)
		}
	}
	return inversions, nil
}

// writeUntil sends ingest batches back to back until stop closes and
// returns each batch's freshness in seconds with the writer's counts.
func (l *loader) writeUntil(stop <-chan struct{}) ([]float64, counts) {
	var fresh []float64
	var c counts
	for b := 0; ; b++ {
		select {
		case <-stop:
			return fresh, c
		default:
		}
		f, bc, err := l.batch("zqmark", 50_000_000, b)
		c.add(bc)
		if err != nil {
			l.fail("%v", err)
			continue
		}
		fresh = append(fresh, f)
	}
}

// batch inserts batch b's papers (see batchRows), promotes, and polls
// /api/similar until the batch's marker term answers 200. It returns
// the time from sending the ingest until then.
func (l *loader) batch(prefix string, base int64, b int) (float64, counts, error) {
	var c counts
	marker, rows := batchRows(prefix, base, l.plan.Seed, b, l.plan.Confs)
	type delta struct {
		Op     string `json:"op"`
		Table  string `json:"table"`
		Values []any  `json:"values"`
	}
	deltas := make([]delta, len(rows))
	for i, r := range rows {
		deltas[i] = delta{Op: "insert", Table: "papers", Values: r}
	}
	body, err := json.Marshal(map[string]any{"deltas": deltas})
	if err != nil {
		return 0, c, err
	}
	start := time.Now()
	for _, step := range []struct {
		path string
		body []byte
	}{
		{"/api/admin/ingest", body},
		{"/api/admin/promote", nil},
	} {
		c.Sent++
		if err := l.post(step.path, step.body); err != nil {
			c.Failed++
			return 0, c, fmt.Errorf("batch %d: %w", b, err)
		}
		c.OK++
	}
	path := "/api/similar?term=" + marker + "&k=5"
	for {
		c.Sent++
		resp, err := l.client.Get(l.base + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.OK++
				return time.Since(start).Seconds(), c, nil
			}
		}
		c.Failed++
		if time.Since(start) > 30*time.Second {
			return 0, c, fmt.Errorf("batch %d: marker %q not answerable 30s after ingest", b, marker)
		}
		time.Sleep(time.Millisecond)
	}
}

func (l *loader) post(path string, body []byte) error {
	resp, err := l.client.Post(l.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// windowSamples is the least number of latencies in one window of the
// windowed p99: ten beyond the percentile.
const windowSamples = 1000

// summarize returns the median of ns and its p99 in microseconds. ns is
// in schedule order; the p99 is the median of the p99s of consecutive
// windows of at least windowSamples latencies, so one stall of the
// machine moves one window rather than the run's figure.
func summarize(ns []int64) summary {
	if len(ns) == 0 {
		return summary{}
	}
	windows := max(1, len(ns)/windowSamples)
	var p99s []float64
	for w := 0; w < windows; w++ {
		win := slices.Clone(ns[w*len(ns)/windows : (w+1)*len(ns)/windows])
		slices.Sort(win)
		p99s = append(p99s, rank(win, 0.99))
	}
	all := slices.Clone(ns)
	slices.Sort(all)
	return summary{N: len(ns), Windows: windows, P50: rank(all, 0.50) / 1e3, P90: rank(all, 0.90) / 1e3,
		P99: median(p99s) / 1e3, PooledP99: rank(all, 0.99) / 1e3}
}

// rank is the nearest-rank q-quantile of sorted values.
func rank[T int64 | float64](sorted []T, q float64) float64 {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

// batchRows returns batch b's fresh marker term and its four papers
// (pid, title, cid) for the papers table, pids counting up from base.
// Every title is the marker alone and all four papers go to one
// conference, confs[b mod len(confs)]: the promotion's affected
// neighbourhood stays within that conference's, a few percent of the
// vocabulary, so the rebuild is the targeted one a small batch gets.
func batchRows(prefix string, base, seed int64, b int, confs []int64) (string, [][]any) {
	marker := fmt.Sprintf("%s%dx%d", prefix, seed%1000, b)
	rows := make([][]any, 4)
	for i := range rows {
		rows[i] = []any{base + int64(4*b+i), marker, confs[b%len(confs)]}
	}
	return marker, rows
}

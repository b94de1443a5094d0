// Command bench is the repository benchmark: it serves a synthetic
// bibliography through kqr-server's HTTP handler on a loopback
// listener, drives it from a separate load process with an open-loop
// schedule and a closed-loop goodput phase, checks every answer, and
// prints the end-to-end metrics. With --trace 1 it instead times the
// public entry point of every layer on a sample of the workload's
// requests and prints the per-layer metrics.
//
//	bash bench/run.sh --workload serve_head --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it describes
// the run (machine, corpus, phases, generator lateness). See README.md
// for the workloads and for which end-to-end metric each layer metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"kqr"
	"kqr/internal/eval"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// setups is how many times a run sets the system up; setup_s is their
// median.
const setups = 3

func main() {
	name := flag.String("workload", "", "workload: serve_head, serve_tail or ingest_promote")
	seed := flag.Int64("seed", 1, "seed for the corpus and the request stream")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	plan := flag.String("load", "", "run as the load process for this plan file")
	flag.Parse()
	if *plan != "" {
		if err := runLoad(*plan); err != nil {
			fmt.Fprintln(os.Stderr, "bench load:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds %d < 1", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	info, _ := json.Marshal(map[string]any{"info": res.info})
	fmt.Println(string(info))
	out, _ := json.Marshal(res.result)
	fmt.Println(string(out))
	if !res.result.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOutput is a finished run: the result line and the description of
// the run printed before it.
type runOutput struct {
	result result
	info   map[string]any
}

// session is one run in progress.
type session struct {
	w      workload
	seed   int64
	dir    string
	r      *rig
	client *http.Client
	out    runOutput
	total  counts
	errs   []string
	confs  []int64 // conferences ingest batches go to
	// cpuPerReq is the serving process's CPU microseconds per request
	// over the last load's open-loop segments.
	cpuPerReq float64
}

func (s *session) set(name string, v float64, unit string) {
	s.out.result.Metrics[name] = metric{Value: v, Unit: unit}
}

func (s *session) fail(format string, args ...any) {
	if len(s.errs) < 20 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

func run(w workload, seed int64, measured time.Duration, traced bool) (runOutput, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return runOutput{}, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return runOutput{}, err
	}
	defer os.RemoveAll(dir)
	s := &session{w: w, seed: seed, dir: dir,
		client: &http.Client{Timeout: 30 * time.Second},
		out: runOutput{
			result: result{Metrics: map[string]metric{}},
			info: map[string]any{
				"workload":   w.name,
				"seed":       seed,
				"nproc":      runtime.NumCPU(),
				"gomaxprocs": runtime.GOMAXPROCS(0),
				"go":         runtime.Version(),
				"corpus":     corpusShape(seed),
				"rate_rps":   w.rate,
			},
		}}
	defer s.client.CloseIdleConnections()

	n := setups
	if traced {
		n = 1
	}
	var times []float64
	for i := 0; i < n; i++ {
		if s.r != nil {
			if err := s.r.Close(); err != nil {
				return runOutput{}, err
			}
			s.r = nil
			runtime.GC()
		}
		start := time.Now()
		if s.r, err = setUp(w, seed, dir); err != nil {
			return runOutput{}, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer s.r.Close()
	s.out.info["setup_s"] = times

	if s.confs, err = typicalConfs(s.r.eng); err != nil {
		return runOutput{}, err
	}
	gen, err := s.generator()
	if err != nil {
		return runOutput{}, err
	}
	stream := s.stream(gen)
	sample := checkSample(stream, 200)
	replay := slices.Clone(stream[:min(replaySize, len(stream))])
	// Only the load process needs the whole stream; handing it over in
	// a file keeps it out of the heap measured below.
	if err := s.writeRequests(stream); err != nil {
		return runOutput{}, err
	}
	heap := liveHeapMiB()
	// Before any load or promotion, HTTP must match the engine in
	// process.
	s.checkSample(sample)

	if traced {
		if err := s.traceRun(replay, sample, measured/2); err != nil {
			return runOutput{}, err
		}
	} else {
		s.set("setup_s", median(times), "s")
		s.set("heap_mb", heap, "MiB")
		p5, err := s.precisionAt5()
		if err != nil {
			return runOutput{}, err
		}
		s.set("p_at_5", p5, "ratio")
		rep, err := s.load(measured)
		if err != nil {
			return runOutput{}, err
		}
		s.set("cpu_us_per_req", s.cpuPerReq, "us")
		fresh, cpu, err := s.idleBatches()
		if err != nil {
			return runOutput{}, err
		}
		s.set("promote_cpu_ms", median(cpu), "ms")
		// The wall-clock figures follow the host's load too closely to
		// carry a bound (see README.md), so they are described here
		// rather than reported as metrics; reformulate_us and read_us
		// give their sample counts.
		s.out.info["wall_clock"] = map[string]metric{
			"reformulate_p50_us": {rep.Reformulate.P50, "us"},
			"reformulate_p99_us": {rep.Reformulate.P99, "us"},
			"read_p99_us":        {rep.Read.P99, "us"},
			"goodput_qps":        {rep.Goodput, "1/s"},
			"freshness_p50_s":    {median(append(slices.Clone(rep.Freshness), fresh...)), "s"},
		}
	}
	// After the load and its promotions, HTTP (and its cache) must
	// still match the engine's current generation.
	s.checkSample(sample)

	s.out.info["errors"] = s.errs
	s.out.result.Correct = len(s.errs) == 0
	s.out.result.Attempted = s.total.Sent
	s.out.result.Failed = s.total.Failed
	return s.out, nil
}

// generator builds the query pools over the rig's corpus.
func (s *session) generator() (*Generator, error) {
	return NewGenerator(s.r.corpus, s.r.eng, s.seed)
}

// streamLen is how many requests a run generates; the load process
// wraps around when a fast closed-loop phase uses them all.
const streamLen = 60000

func (s *session) stream(g *Generator) []Request {
	if s.w.tail {
		return g.Tail(streamLen, s.seed)
	}
	return g.Head(streamLen, s.seed)
}

// writeRequests writes the stream for the load process.
func (s *session) writeRequests(stream []Request) error {
	reqs := make([]planRequest, len(stream))
	for i, r := range stream {
		reqs[i] = planRequest{Kind: r.Kind, K: r.K, Path: r.Path}
	}
	raw, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.dir, "requests.json"), raw, 0o644)
}

// idleBatchCount is how many ingest batches every workload sends after
// its reads, on an idle server, for the promotion's CPU cost. The first
// is a warm-up: it costs more than those after it.
const idleBatchCount = 6

// roundSeconds is the length of one round of the measured time: 60% an
// open-loop segment, 40% a closed-loop segment.
const roundSeconds = 2

// load runs the workload's phases in a separate load process and
// returns its report: one unmeasured second of open-loop warm-up, then
// the measured time in rounds (see loadPlan).
func (s *session) load(measured time.Duration) (loadReport, error) {
	round := roundSeconds * time.Second
	plan := loadPlan{
		Addr:    s.r.addr,
		Senders: runtime.NumCPU(),
		Rate:    s.w.rate,
		Warmup:  time.Second,
		Rounds:  max(1, int(measured/round)),
		Open:    round * 6 / 10,
		Closed:  round * 4 / 10,
		Writer:  s.w.writer,
		Seed:    s.seed,
		Confs:   s.confs,

		RequestsFile: filepath.Join(s.dir, "requests.json"),
	}
	if measured < round {
		plan.Open, plan.Closed = measured*6/10, measured*4/10
	}
	rep, err := s.runLoadProcess(plan)
	if err != nil {
		return rep, err
	}
	for name, c := range rep.Phases {
		s.total.add(c)
		s.out.info["phase_"+name] = c
	}
	for _, e := range rep.Errors {
		s.fail("load: %s", e)
	}
	s.out.info["reformulate_us"] = rep.Reformulate
	s.out.info["read_us"] = rep.Read
	s.out.info["late_us"] = rep.Late
	s.out.info["service_us"] = rep.Service
	s.out.info["generator_bound"] = rep.GeneratorBound
	s.out.info["freshness_s"] = rep.Freshness
	s.out.info["score_inversions"] = rep.ScoreInversions
	if rep.GeneratorBound {
		fmt.Fprintf(os.Stderr, "bench: generator-bound run: send lateness p99 %.0fµs exceeds service p99 %.0fµs\n",
			rep.Late.P99, rep.Service.P99)
	}
	if s.w.writer && len(rep.Freshness) == 0 {
		return rep, errors.New("no writer batch became visible")
	}
	return rep, nil
}

// idleBatches sends idleBatchCount ingest batches from this process after
// the reads and returns each one's freshness in seconds and, past the
// warm-up, the CPU milliseconds this process spent on it.
func (s *session) idleBatches() (fresh, cpu []float64, err error) {
	l := &loader{plan: loadPlan{Seed: s.seed, Confs: s.confs}, base: "http://" + s.r.addr, client: s.client}
	var total counts
	for b := 0; b < idleBatchCount; b++ {
		before := sampleCPU().cpu
		f, c, err := l.batch("zqidle", 55_000_000, b)
		spent := sampleCPU().cpu - before
		total.add(c)
		if err != nil {
			s.fail("%v", err)
			continue
		}
		fresh = append(fresh, f)
		if b > 0 {
			cpu = append(cpu, float64(spent)/1e6)
		}
	}
	s.total.add(total)
	s.out.info["phase_idle_writer"] = total
	s.out.info["idle_freshness_s"] = fresh
	s.out.info["promote_cpu_ms_batches"] = cpu
	if len(cpu) == 0 {
		return nil, nil, errors.New("no idle ingest batch became visible")
	}
	return fresh, cpu, nil
}

// runLoadProcess starts this executable as the load process on plan
// and waits for it to exit.
func (s *session) runLoadProcess(plan loadPlan) (loadReport, error) {
	var rep loadReport
	raw, err := json.Marshal(plan)
	if err != nil {
		return rep, err
	}
	path := filepath.Join(s.dir, "plan.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return rep, err
	}
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	timeout := plan.Warmup + time.Duration(plan.Rounds)*(plan.Open+plan.Closed) + 2*time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-load", path)
	cmd.Stderr = os.Stderr
	cpu := startCPUSampler()
	out, err := cmd.Output()
	samples := cpu.Stop()
	if err != nil {
		return rep, fmt.Errorf("load process: %w", err)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, fmt.Errorf("load process report: %w", err)
	}
	var spent int64
	for _, sp := range rep.OpenSpans {
		spent += cpuBetween(samples, sp[0], sp[1])
	}
	if n := rep.Phases["open"].Sent; n > 0 {
		s.cpuPerReq = float64(spent) / 1e3 / float64(n)
	}
	return rep, nil
}

// precisionAt5 asks /api/reformulate for a fixed judged probe set and
// returns the mean precision@5 of the answers under the corpus's
// ground truth.
func (s *session) precisionAt5() (float64, error) {
	judge, err := eval.NewJudge(s.r.corpus.Truth)
	if err != nil {
		return 0, err
	}
	probes := cleanQueries(s.r.eng, eval.MixedQueries(s.r.corpus, 200, s.seed))
	if len(probes) == 0 {
		return 0, errors.New("empty precision probe set")
	}
	sum := 0.0
	for _, q := range probes {
		body, ok := s.get(newRequest(KindReformulate, q, 5, false).Path)
		if !ok {
			continue
		}
		var b reformulateBody
		if err := json.Unmarshal(body, &b); err != nil {
			s.fail("probe %q: %v", q, err)
			continue
		}
		rels := make([]bool, len(b.Suggestions))
		for i, sg := range b.Suggestions {
			rels[i] = judge.QueryRelevant(q, sg.Terms)
		}
		sum += eval.PrecisionAtN(rels, 5)
	}
	s.out.info["p_at_5_probes"] = len(probes)
	return sum / float64(len(probes)), nil
}

// get sends one checking request from the benchmark process itself and
// counts it.
func (s *session) get(path string) ([]byte, bool) {
	s.total.Sent++
	resp, err := s.client.Get("http://" + s.r.addr + path)
	if err != nil {
		s.total.Failed++
		s.fail("%s: %v", path, err)
		return nil, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		s.total.Failed++
		s.fail("%s: status %d (%v)", path, resp.StatusCode, err)
		return nil, false
	}
	return body, true
}

// answer is one reformulation as the checks compare it.
type answer struct {
	Terms [][]string
	Score []float64
	Err   error
}

// checkSample picks up to n reformulate requests spread evenly over
// the stream.
func checkSample(stream []Request, n int) []Request {
	var refs []Request
	for _, r := range stream {
		if r.Kind == KindReformulate {
			refs = append(refs, r)
		}
	}
	step := max(1, len(refs)/n)
	var out []Request
	for i := 0; i < len(refs) && len(out) < n; i += step {
		out = append(out, refs[i])
	}
	return out
}

// engineAnswers answers the sample in process.
func engineAnswers(eng *kqr.Engine, sample []Request) []answer {
	out := make([]answer, len(sample))
	for i, r := range sample {
		sugs, _, err := eng.ReformulateMended(r.Terms, r.K)
		out[i].Err = err
		for _, sg := range sugs {
			out[i].Terms = append(out[i].Terms, sg.Terms)
			out[i].Score = append(out[i].Score, sg.Score)
		}
	}
	return out
}

// checkSample requires every sampled HTTP answer to equal the serving
// engine's in-process Engine.ReformulateMended answer, bit for bit.
func (s *session) checkSample(sample []Request) {
	want := engineAnswers(s.r.eng, sample)
	for i, r := range sample {
		if want[i].Err != nil {
			s.fail("in-process %q: %v", r.Terms, want[i].Err)
			continue
		}
		body, ok := s.get(r.Path)
		if !ok {
			continue
		}
		var b reformulateBody
		if err := json.Unmarshal(body, &b); err != nil {
			s.fail("%s: %v", r.Path, err)
			continue
		}
		var got answer
		for _, sg := range b.Suggestions {
			got.Terms = append(got.Terms, sg.Terms)
			got.Score = append(got.Score, sg.Score)
		}
		if !sameAnswer(got, want[i]) {
			s.fail("%s: HTTP answer %v differs from in-process %v", r.Path, got, want[i])
		}
	}
	s.out.info["checked_sample"] = len(sample)
}

func sameAnswer(a, b answer) bool {
	return slices.Equal(a.Score, b.Score) &&
		slices.EqualFunc(a.Terms, b.Terms, func(x, y []string) bool { return slices.Equal(x, y) })
}

// liveHeapMiB forces a collection and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// median is the median of v (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	slices.Sort(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"kqr"
	"kqr/internal/graph"
	"kqr/internal/live"
	"kqr/internal/mend"
	"kqr/internal/tatgraph"
	"kqr/internal/textindex"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Parent links name the layer a call belongs to: each span is a
// separate call on the same input, run after its parent, so a span's
// self time is its duration less its children's durations.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. When off it records nothing, so the
// same replay measures the untraced cost.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int32) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// replaySize is how many requests from the start of the stream the
// traced run replays.
const replaySize = 1000

// traceRun is the --trace 1 run: a short load phase for the serving
// counters, a replay of the workload's requests through every layer's
// public entry point (untraced and traced, for the tracing overhead),
// the offline layers on a fresh generation, the paged tables, and
// promotions.
func (s *session) traceRun(replay, sample []Request, loadFor time.Duration) error {
	if err := s.traceServing(loadFor); err != nil {
		return err
	}
	if err := s.traceReplay(replay); err != nil {
		return err
	}
	if err := s.traceOffline(); err != nil {
		return err
	}
	if err := s.traceDisk(sample); err != nil {
		return err
	}
	return s.traceLive()
}

// runtimeCounters reads the runtime/metrics the runtime layer reports.
func runtimeCounters() (gcCPU, allCPU, allocBytes float64) {
	m := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(m)
	return m[0].Value.Float64(), m[1].Value.Float64(), float64(m[2].Value.Uint64())
}

// traceServing runs the workload's load for loadFor and reports the
// server's own counters and the runtime's over it.
func (s *session) traceServing(loadFor time.Duration) error {
	before := s.r.srv.Metrics()
	logBefore := s.r.logBytes()
	gc0, cpu0, alloc0 := runtimeCounters()
	rep, err := s.load(loadFor)
	if err != nil {
		return err
	}
	// Wall-clock latency and goodput track the host's load too
	// closely to carry a bound as end-to-end metrics; the traced run
	// reports them.
	s.set("server.reformulate_p50_us", rep.Reformulate.P50, "us")
	s.set("server.reformulate_p99_us", rep.Reformulate.P99, "us")
	s.set("server.read_p99_us", rep.Read.P99, "us")
	s.set("server.goodput_qps", rep.Goodput, "1/s")
	gc1, cpu1, alloc1 := runtimeCounters()
	after := s.r.srv.Metrics()
	var reqs, hits, misses, shed, coalesced int64
	for name, e := range after.Endpoints {
		b := before.Endpoints[name]
		reqs += e.Requests - b.Requests
		hits += e.Hits - b.Hits
		misses += e.Misses - b.Misses
		shed += e.Shed - b.Shed
		coalesced += e.Coalesced - b.Coalesced
	}
	s.set("server.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	s.set("server.shed", float64(shed), "count")
	s.set("server.coalesced", float64(coalesced), "count")
	s.set("server.log_bytes_per_req", ratio(float64(s.r.logBytes()-logBefore), float64(reqs)), "B")
	s.set("runtime.gc_cpu_frac", ratio(gc1-gc0, cpu1-cpu0), "ratio")
	s.set("runtime.alloc_bytes_per_req", ratio(alloc1-alloc0, float64(reqs)), "B")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simRower is the packed similarity row accessor the decode path reads.
type simRower interface {
	SimRow(t0 graph.NodeID) ([]graph.NodeID, []float32, bool)
}

// replayer runs requests through the HTTP edge and every layer below.
type replayer struct {
	s    *session
	eng  *kqr.Engine
	g    *live.Generation
	rows simRower
	t    *tracer
	pops []float64 // A* expansions per topk call
	clos []float64 // closeness lookups per query
}

// one replays request i.
func (p *replayer) one(i int32, r Request) error {
	t := p.t
	root := t.begin("request", i, -1)
	defer t.end(root)
	h := t.begin("http", i, root)
	if _, ok := p.s.get(r.Path); !ok {
		return fmt.Errorf("replay %s failed", r.Path)
	}
	t.end(h)
	switch r.Kind {
	case KindSimilar:
		sp := t.begin("similar", i, h)
		_, err := p.eng.SimilarTerms(r.Terms[0], r.K)
		t.end(sp)
		return err
	case KindSearch:
		sp := t.begin("search", i, h)
		_, _, err := p.eng.Search(r.Terms)
		t.end(sp)
		return err
	}
	sp := t.begin("parse", i, root)
	_, err := kqr.ParseQuery(kqr.Suggestion{Terms: r.Terms}.String())
	t.end(sp)
	if err != nil {
		return err
	}
	eng := t.begin("engine", i, h)
	_, _, err = p.eng.ReformulateMended(r.Terms, r.K)
	t.end(eng)
	if err != nil {
		return err
	}
	sp = t.begin("mend", i, eng)
	res, err := p.eng.Mend(r.Terms)
	t.end(sp)
	if err != nil {
		return err
	}
	terms := res.Terms
	core := t.begin("core", i, eng)
	_, err = p.g.Core.Reformulate(terms, r.K)
	t.end(core)
	if err != nil {
		return err
	}
	nodes := make([]graph.NodeID, len(terms))
	for j, term := range terms {
		sp = t.begin("resolve", i, core)
		nodes[j], err = p.g.Core.ResolveTerm(term)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	dec := t.begin("decode", i, core)
	err = p.g.Core.DecodePaths(nodes, r.K+len(nodes)+2, nil)
	t.end(dec)
	if err != nil {
		return err
	}
	p.layerReads(i, dec, nodes)
	sp = t.begin("build", i, root)
	model, err := p.g.Core.BuildQueryModel(terms)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("topk", i, dec)
	_, stats, err := model.TopKAStar(r.K + len(nodes) + 2)
	t.end(sp)
	if err != nil {
		return err
	}
	p.pops = append(p.pops, float64(stats.Expanded))
	if i%3 == 0 {
		sp = t.begin("search", i, root)
		_, _, err = p.eng.Search(terms)
		t.end(sp)
	}
	return err
}

// layerReads times the table reads one decode makes: the packed
// similarity row of every query term, then the closeness of every
// candidate pair of adjacent slots, each as one batch.
func (p *replayer) layerReads(i, parent int32, nodes []graph.NodeID) {
	n := p.g.Core.Options().CandidatesPerTerm
	slots := make([][]graph.NodeID, len(nodes))
	sp := p.t.begin("simrow", i, parent)
	for j, q := range nodes {
		slots[j] = append(slots[j], q)
		if row, _, ok := p.rows.SimRow(q); ok {
			for _, v := range row[:min(n, len(row))] {
				if v != q {
					slots[j] = append(slots[j], v)
				}
			}
		}
	}
	p.t.end(sp)
	sp = p.t.begin("clos", i, parent)
	lookups := 0
	for j := 1; j < len(slots); j++ {
		for _, a := range slots[j-1] {
			for _, b := range slots[j] {
				p.g.Clos.Clos(a, b)
				lookups++
			}
		}
	}
	p.t.end(sp)
	p.clos = append(p.clos, float64(lookups))
}

// traceReplay replays the requests untraced and traced, four times
// each after a warm-up pass, reports the tracing overhead from the faster
// pass of each kind, and derives the online layer metrics from the
// spans of the last traced pass.
func (s *session) traceReplay(replay []Request) error {
	mgr, _ := s.r.eng.Replication()
	g := mgr.Current()
	rows, ok := g.Sim.(simRower)
	if !ok {
		return fmt.Errorf("similarity provider %T has no packed rows", g.Sim)
	}
	var p, tracedPass *replayer
	pass := func(on bool) (time.Duration, error) {
		p = &replayer{s: s, eng: s.r.eng, g: g, rows: rows, t: &tracer{on: on, t0: time.Now()}}
		if on {
			tracedPass = p
		}
		start := time.Now()
		for i, r := range replay {
			if err := p.one(int32(i), r); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	if _, err := pass(false); err != nil {
		return err
	}
	// Alternate the order so neither kind of pass always runs first.
	untraced, traced := time.Duration(1<<62), time.Duration(1<<62)
	for _, on := range []bool{false, true, true, false, false, true, true, false} {
		d, err := pass(on)
		if err != nil {
			return err
		}
		if on {
			traced = min(traced, d)
		} else {
			untraced = min(untraced, d)
		}
	}
	s.set("trace.overhead_pct", 100*(float64(traced)-float64(untraced))/float64(untraced), "%")
	s.out.info["trace_untraced_s"] = untraced.Seconds()
	s.out.info["trace_traced_s"] = traced.Seconds()
	p = tracedPass

	dur, self := spanTimes(p.t.spans)
	us := func(v []float64, q float64) float64 { return quantile(v, q) / 1e3 }
	s.set("server.edge_self_p50_us", us(selfOf(p.t.spans, self, "http", "engine"), 0.5), "us")
	s.set("mend.mend_p50_us", us(dur["mend"], 0.5), "us")
	s.set("mend.mend_p99_us", us(dur["mend"], 0.99), "us")
	s.set("core.reformulate_p50_us", us(dur["core"], 0.5), "us")
	s.set("core.reformulate_p99_us", us(dur["core"], 0.99), "us")
	s.set("core.decode_paths_p50_us", us(dur["decode"], 0.5), "us")
	s.set("core.resolve_ns", quantile(dur["resolve"], 0.5), "ns")
	s.set("hmm.topk_p50_us", us(dur["topk"], 0.5), "us")
	s.set("hmm.topk_p99_us", us(dur["topk"], 0.99), "us")
	s.set("hmm.astar_pops", mean(p.pops), "count")
	s.set("packed.simrow_batch_us", us(dur["simrow"], 0.5), "us")
	s.set("closeness.lookup_batch_us", us(dur["clos"], 0.5), "us")
	s.set("closeness.lookups_per_query", mean(p.clos), "count")
	s.set("keywordsearch.search_p50_us", us(dur["search"], 0.5), "us")
	s.set("keywordsearch.search_p99_us", us(dur["search"], 0.99), "us")
	s.out.info["spans"] = len(p.t.spans)

	changed, n := 0, 0
	for _, r := range replay {
		if r.Kind != KindReformulate {
			continue
		}
		res, err := s.r.eng.Mend(r.Terms)
		if err != nil {
			return err
		}
		n++
		if res.Changed {
			changed++
		}
	}
	s.set("mend.changed_ratio", ratio(float64(changed), float64(n)), "ratio")
	s.set("core.allocs_per_op", allocsPerReformulate(g, replay), "count")
	return s.dumpSpans(p.t.spans)
}

// spanTimes groups span durations and self times by span name.
func spanTimes(spans []span) (dur, self map[string][]float64) {
	children := make([]float64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] += float64(sp.End - sp.Start)
		}
	}
	dur, self = map[string][]float64{}, map[string][]float64{}
	for i, sp := range spans {
		d := float64(sp.End - sp.Start)
		dur[sp.Name] = append(dur[sp.Name], d)
		self[sp.Name] = append(self[sp.Name], d-children[i])
	}
	return dur, self
}

// selfOf is the self time of the name spans that have a child called
// child — the HTTP round trips of reformulations, whose one child is
// the in-process Engine.ReformulateMended call.
func selfOf(spans []span, self map[string][]float64, name, child string) []float64 {
	has := map[int32]bool{}
	for _, sp := range spans {
		if sp.Name == child && sp.Parent >= 0 {
			has[sp.Parent] = true
		}
	}
	var out []float64
	k := 0
	for _, sp := range spans {
		if sp.Name != name {
			continue
		}
		if has[sp.ID] {
			out = append(out, self[name][k])
		}
		k++
	}
	return out
}

// allocsPerReformulate is the mean heap allocation count of one
// core.Engine.Reformulate call over the replay's mended queries, on
// one goroutine.
func allocsPerReformulate(g *live.Generation, replay []Request) float64 {
	var qs [][]string
	var ks []int
	for _, r := range replay {
		if r.Kind != KindReformulate || g.Mender == nil {
			continue
		}
		qs = append(qs, g.Mender.Mend(r.Terms).Terms)
		ks = append(ks, r.K)
	}
	if len(qs) == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, q := range qs {
		g.Core.Reformulate(q, ks[i])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(qs))
}

// dumpSpans writes the last traced pass's spans, one JSON object per
// line, next to the build.
func (s *session) dumpSpans(spans []span) error {
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.w.name, s.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	s.out.info["span_dump"] = path
	return f.Close()
}

// traceOffline times the offline stage on a fresh generation over the
// current corpus: the TAT graph build, the walk and closeness
// precompute over the whole vocabulary, and the mend index build.
func (s *session) traceOffline() error {
	mgr, cfg := s.r.eng.Replication()
	db := mgr.Current().DB
	var build []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := tatgraph.Build(db, tatgraph.Options{Tokenizer: textindex.NewTokenizer()}); err != nil {
			return err
		}
		build = append(build, msSince(start))
	}
	s.set("tatgraph.build_ms", median(build), "ms")

	g, err := live.Build(db, cfg)
	if err != nil {
		return err
	}
	terms := g.TG.TermNodeIDs()
	ctx := context.Background()
	start := time.Now()
	if err := g.Sim.Precompute(ctx, terms); err != nil {
		return err
	}
	s.set("randomwalk.walk_ms_per_term", msSince(start)/float64(len(terms)), "ms")
	start = time.Now()
	if err := g.Clos.Precompute(ctx, terms); err != nil {
		return err
	}
	s.set("closeness.search_ms_per_term", msSince(start)/float64(len(terms)), "ms")

	texts := g.TG.TermTexts()
	freqs := make([]int, len(texts))
	for i, t := range texts {
		for _, v := range g.TG.FindTerm(t) {
			freqs[i] += g.TG.Freq(v)
		}
	}
	var idx []float64
	for i := 0; i < 3; i++ {
		start = time.Now()
		mend.NewIndex(texts, freqs)
		idx = append(idx, msSince(start))
	}
	s.set("mend.index_build_ms", median(idx), "ms")
	return nil
}

// traceDisk reports the paged-table layers: it saves a paged snapshot
// of the serving engine, opens a disk-mode engine over it, runs the
// sample through the disk engine once, and requires every answer to
// equal the serving engine's, bit for bit.
func (s *session) traceDisk(sample []Request) error {
	disk, saveMS, openMS, err := openDisk(s.r.eng, s.dir)
	if err != nil {
		return err
	}
	defer disk.Close()
	s.set("artifact.save_paged_ms", saveMS, "ms")
	s.set("artifact.open_disk_ms", openMS, "ms")
	before, ok := disk.DiskTables()
	if !ok {
		return fmt.Errorf("disk engine reports no paged tables")
	}
	got := engineAnswers(disk, sample)
	after, _ := disk.DiskTables()
	for i, want := range engineAnswers(s.r.eng, sample) {
		if got[i].Err != nil || !sameAnswer(got[i], want) {
			s.fail("%q: disk-mode answer %v (%v) differs from RAM %v", sample[i].Terms, got[i], got[i].Err, want)
		}
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	s.set("diskmode.page_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	s.set("diskmode.faults_per_query", ratio(float64(misses), float64(len(sample))), "count")
	s.set("diskmode.resident_bytes", float64(after.ResidentBytes), "B")
	return nil
}

// promoteRounds is how many 4-paper promotions the live layer times.
const promoteRounds = 3

// traceLive ingests 4-paper batches into the serving engine and times
// each Engine.Promote with the phase timings it returns.
func (s *session) traceLive() error {
	var total, apply, graphMS, carry, pre, pack, mendMS, affected []float64
	targeted := 0
	for b := 0; b < promoteRounds; b++ {
		_, rows := batchRows("zqtrace", 60_000_000, s.seed, b, s.confs)
		deltas := make([]kqr.Delta, len(rows))
		for i, r := range rows {
			deltas[i] = kqr.Delta{Op: kqr.InsertTuple, Table: "papers", Values: r}
		}
		if err := s.r.eng.Ingest(deltas); err != nil {
			return err
		}
		start := time.Now()
		info, err := s.r.eng.Promote(context.Background())
		if err != nil {
			return err
		}
		total = append(total, msSince(start))
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		apply = append(apply, ms(info.ApplyDeltas))
		graphMS = append(graphMS, ms(info.BuildGraph))
		carry = append(carry, ms(info.CarryOver))
		pre = append(pre, ms(info.Precompute))
		pack = append(pack, ms(info.Pack))
		mendMS = append(mendMS, ms(info.Mend))
		affected = append(affected, ratio(float64(info.AffectedTerms), float64(info.TotalTerms)))
		if info.Mode == "targeted" {
			targeted++
		}
	}
	s.set("live.promote_ms", median(total), "ms")
	s.set("live.apply_ms", median(apply), "ms")
	s.set("live.graph_ms", median(graphMS), "ms")
	s.set("live.carry_ms", median(carry), "ms")
	s.set("live.precompute_ms", median(pre), "ms")
	s.set("live.pack_ms", median(pack), "ms")
	s.set("live.mend_ms", median(mendMS), "ms")
	s.set("live.affected_ratio", median(affected), "ratio")
	s.set("live.targeted_ratio", float64(targeted)/promoteRounds, "ratio")
	return nil
}

// quantile is the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	slices.Sort(c)
	return rank(c, q)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

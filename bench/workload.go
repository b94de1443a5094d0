package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
	"kqr/internal/graph"
	"kqr/internal/tatgraph"
	"kqr/server"
)

// workload is one traffic mix. rate is the fixed open-loop offered
// rate, about half of the mix's closed-loop goodput on a 2-core
// machine (ingest_promote reads at half serve_head's rate, beside its
// writer); it never adapts per run.
type workload struct {
	name   string
	cache  bool    // 64 MiB / 5 min response cache (else -cache-mb 0)
	tail   bool    // uniform tail stream (else the Zipf head stream)
	writer bool    // ingest + promote batches beside the reads
	rate   float64 // open-loop offered rate, requests per second
}

var workloads = []workload{
	{name: "serve_head", cache: true, rate: 4000},
	{name: "serve_tail", tail: true, rate: 3000},
	{name: "ingest_promote", cache: true, writer: true, rate: 2000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// corpusConfig is the experiment shape (topics 8, confs 32, authors
// 600) at 1,200 papers, seeded from the run's seed.
func corpusConfig(seed int64) dblpgen.Config {
	return dblpgen.Config{Seed: seed, Topics: 8, Confs: 32, Authors: 600, Papers: 1200}
}

func corpusShape(seed int64) string {
	c := corpusConfig(seed)
	return fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", c.Seed, c.Topics, c.Confs, c.Authors, c.Papers)
}

// typicalConfs lists the conferences whose promotion neighbourhoods
// are nearest the median size, nearest first. Ingest batches go to
// these. A promotion recomputes every term within the affected radius
// (ClosenessMaxLen hops) of the inserted papers, so a batch's cost
// follows the number of terms within one hop less of its conference.
// That number is bimodal over conferences, and choosing by it keeps a
// batch's cost comparable whatever the seed.
func typicalConfs(eng *kqr.Engine) ([]int64, error) {
	mgr, cfg := eng.Replication()
	g := mgr.Current()
	confs, err := g.DB.Table("conferences")
	if err != nil {
		return nil, err
	}
	radius := cfg.ClosenessMaxLen
	if radius == 0 {
		radius = 4
	}
	size := map[int64]int{}
	for i := 0; i < confs.Len(); i++ {
		tp, err := confs.Tuple(i)
		if err != nil {
			return nil, err
		}
		cid, err := tp.Values[0].AsInt()
		if err != nil {
			return nil, err
		}
		if v, ok := g.TG.TupleNode(tp.ID); ok {
			size[cid] = termsWithin(g.TG, v, radius-1)
		}
	}
	if len(size) == 0 {
		return nil, errors.New("no conference in the term graph")
	}
	ids := slices.Sorted(maps.Keys(size))
	sizes := slices.Sorted(maps.Values(size))
	mid := sizes[len(sizes)/2]
	dist := func(id int64) int { return max(size[id]-mid, mid-size[id]) }
	slices.SortStableFunc(ids, func(a, b int64) int { return dist(a) - dist(b) })
	return ids[:min(typicalConfCount, len(ids))], nil
}

// termsWithin counts the term nodes within hops of from.
func termsWithin(tg *tatgraph.Graph, from graph.NodeID, hops int) int {
	seen := map[graph.NodeID]bool{from: true}
	frontier := []graph.NodeID{from}
	n := 0
	for d := 0; d < hops && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, v := range frontier {
			tg.CSR().Neighbors(v, func(u graph.NodeID, _ float64) bool {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
					if tg.Kind(u) == tatgraph.KindTerm {
						n++
					}
				}
				return true
			})
		}
		frontier = next
	}
	return n
}

// typicalConfCount is how many conferences ingest batches rotate over.
const typicalConfCount = 8

// diskBudgetShare is the share of the paged tables' on-disk size the
// disk-mode page cache may keep resident (on top of the mend index and
// the page index), well below the tables' size.
const diskBudgetShare = 0.25

// rig is one set-up system: corpus, engine and a loopback HTTP
// listener serving server.New(eng, …).Handler() in kqr-server's
// production posture.
type rig struct {
	w      workload
	corpus *dblpgen.Corpus
	eng    *kqr.Engine
	srv    *server.Server
	http   *http.Server
	addr   string
	served chan error
	log    *os.File
}

// setUp builds the corpus, opens and warms the engine, and starts the
// listener. dir receives the request log.
func setUp(w workload, seed int64, dir string) (*rig, error) {
	r := &rig{w: w}
	corpus, err := dblpgen.Generate(corpusConfig(seed))
	if err != nil {
		return nil, err
	}
	r.corpus = corpus
	eng, err := kqr.Open(kqr.WrapDatabase(corpus.DB), kqr.Options{Mend: true, Live: true})
	if err != nil {
		return nil, err
	}
	if err := eng.Warm(context.Background()); err != nil {
		eng.Close()
		return nil, err
	}
	r.eng = eng
	if err := r.serve(dir); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// openDisk saves eng's tables as a paged snapshot in dir and opens its
// current corpus in disk mode with a table budget of the mend index
// plus diskBudgetShare of the snapshot. It returns the disk-mode engine
// and the milliseconds the save and the open took.
func openDisk(eng *kqr.Engine, dir string) (disk *kqr.Engine, saveMS, openMS float64, err error) {
	path := filepath.Join(dir, "tables.paged")
	start := time.Now()
	if err := eng.SaveArtifactsPaged(path); err != nil {
		return nil, 0, 0, err
	}
	saveMS = msSince(start)
	st, err := os.Stat(path)
	if err != nil {
		return nil, 0, 0, err
	}
	ms, _ := eng.MendStats()
	opts := kqr.Options{Mend: true, Live: true, ArtifactPath: path, DiskMode: true,
		TableMemBudget: ms.Bytes + int64(diskBudgetShare*float64(st.Size()))}
	mgr, _ := eng.Replication()
	start = time.Now()
	disk, err = kqr.Open(kqr.WrapDatabase(mgr.Current().DB), opts)
	if err != nil {
		return nil, 0, 0, err
	}
	return disk, saveMS, msSince(start), nil
}

// serve starts the loopback listener with the production serving
// posture; request logs go to a file so their cost stays measured.
func (r *rig) serve(dir string) error {
	f, err := os.CreateTemp(dir, "requests-*.log")
	if err != nil {
		return err
	}
	r.log = f
	opts := []server.Option{
		server.WithLogger(log.New(f, "", log.LstdFlags)),
		server.WithMaxInflight(4*runtime.GOMAXPROCS(0), 64),
	}
	if r.w.cache {
		opts = append(opts, server.WithCache(64<<20, 5*time.Minute))
	}
	srv, err := server.New(r.eng, opts...)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = srv
	r.addr = ln.Addr().String()
	r.http = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	r.served = make(chan error, 1)
	go func() { r.served <- r.http.Serve(ln) }()
	return nil
}

// logBytes is the request log's current size.
func (r *rig) logBytes() int64 {
	st, err := r.log.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Close stops the listener, waits for its serve loop, and closes the
// engine and the log.
func (r *rig) Close() error {
	var errs []error
	if r.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, r.http.Shutdown(ctx))
		cancel()
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		r.http = nil
	}
	if r.eng != nil {
		r.eng.Close()
		r.eng = nil
	}
	if r.log != nil {
		errs = append(errs, r.log.Close())
		r.log = nil
	}
	return errors.Join(errs...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

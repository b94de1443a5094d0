// Snapshot cold-start experiment: measures how much faster a replica
// starts by opening over the persistent offline artifact than by
// opening and recomputing the offline stage, and verifies the loaded
// tables are bit-identical to the computed ones.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
)

// SnapshotRow is the result of one snapshot cold-start measurement.
type SnapshotRow struct {
	// Terms is the vocabulary size warmed and persisted.
	Terms int `json:"terms"`
	// Warm is how long Open plus the full-vocabulary Warm took.
	Warm time.Duration `json:"warm_ns"`
	// Save is how long writing the snapshot took.
	Save time.Duration `json:"save_ns"`
	// Load is how long Open with Options.ArtifactPath took.
	Load time.Duration `json:"load_ns"`
	// Speedup is Warm / Load — how many times faster a snapshot-backed
	// cold start is than recomputation.
	Speedup float64 `json:"speedup_load_vs_warm"`
	// FileBytes is the snapshot size on disk.
	FileBytes int64 `json:"file_bytes"`
	// VerifiedTerms counts vocabulary terms whose SimilarTerms and
	// CloseTerms results were compared between the warm and the loaded
	// engine; it equals Terms when the round trip is exact.
	VerifiedTerms int `json:"verified_terms"`
}

// SnapshotColdStart builds the synthetic DBLP corpus, opens and warms
// an engine over it, saves the snapshot, opens a second engine with
// Options.ArtifactPath, and verifies every vocabulary term round-trips
// exactly. It fails if the snapshot was not used. dir hosts the
// snapshot file (use a temp dir); workers sizes the warm pool (0 =
// GOMAXPROCS).
func SnapshotColdStart(cfg dblpgen.Config, dir string, workers int) (SnapshotRow, error) {
	var row SnapshotRow
	corpus, err := dblpgen.Generate(cfg)
	if err != nil {
		return row, err
	}
	ds := kqr.WrapDatabase(corpus.DB)
	opts := kqr.Options{PrecomputeWorkers: workers}
	start := time.Now()
	warm, err := kqr.Open(ds, opts)
	if err != nil {
		return row, err
	}
	if err := warm.Warm(context.Background()); err != nil {
		return row, err
	}
	row.Warm = time.Since(start)

	path := filepath.Join(dir, "offline.snapshot")
	start = time.Now()
	if err := warm.SaveArtifactsPaged(path); err != nil {
		return row, err
	}
	row.Save = time.Since(start)
	if st, err := os.Stat(path); err == nil {
		row.FileBytes = st.Size()
	}

	opts.ArtifactPath = path
	start = time.Now()
	cold, err := kqr.Open(ds, opts)
	if err != nil {
		return row, err
	}
	row.Load = time.Since(start)
	if info := cold.Artifact(); !info.Loaded {
		return row, fmt.Errorf("snapshot: %s not used: %s", path, info.FallbackReason)
	}
	if row.Load > 0 {
		row.Speedup = float64(row.Warm) / float64(row.Load)
	}

	vocab := warm.Vocabulary()
	row.Terms = len(vocab)
	for _, term := range vocab {
		wantSim, err1 := warm.SimilarTerms(term, 10)
		gotSim, err2 := cold.SimilarTerms(term, 10)
		wantClos, err3 := warm.CloseTerms(term, 10, "")
		gotClos, err4 := cold.CloseTerms(term, 10, "")
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return row, fmt.Errorf("snapshot: verifying %q: %v %v %v %v", term, err1, err2, err3, err4)
		}
		if !reflect.DeepEqual(wantSim, gotSim) || !reflect.DeepEqual(wantClos, gotClos) {
			return row, fmt.Errorf("snapshot: term %q differs between warm and loaded engine", term)
		}
		row.VerifiedTerms++
	}
	return row, nil
}

// RenderSnapshot formats the measurement for the terminal.
func RenderSnapshot(row SnapshotRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Snapshot cold start (%d vocabulary terms, %d workers max):\n", row.Terms, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "  open + warm (offline compute) %11v\n", row.Warm.Round(time.Millisecond))
	fmt.Fprintf(&b, "  save snapshot                %12v  (%d bytes)\n", row.Save.Round(time.Millisecond), row.FileBytes)
	fmt.Fprintf(&b, "  open with snapshot           %12v\n", row.Load.Round(time.Millisecond))
	fmt.Fprintf(&b, "  cold-start speedup           %11.1fx\n", row.Speedup)
	fmt.Fprintf(&b, "  round-trip verified          %9d/%d terms\n", row.VerifiedTerms, row.Terms)
	return b.String()
}

// snapshotReport is the schema of BENCH_snapshot.json.
type snapshotReport struct {
	Corpus  string      `json:"corpus"`
	MaxProc int         `json:"gomaxprocs"`
	Row     SnapshotRow `json:"result"`
}

// WriteSnapshotJSON writes the measurement as indented JSON (the
// `make bench-snapshot` artifact).
func WriteSnapshotJSON(w io.Writer, cfg dblpgen.Config, row SnapshotRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snapshotReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		MaxProc: runtime.GOMAXPROCS(0),
		Row:     row,
	})
}

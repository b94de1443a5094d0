package kqr_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kqr"
	"kqr/internal/artifact"
)

// TestDiskModeRoundTrip is the disk-mode acceptance property: Warm →
// SaveArtifactsPaged → fresh Open with DiskMode yields bit-identical
// SimilarTerms and CloseTerms for every vocabulary term, while the
// table payloads stay on disk behind a byte budget.
func TestDiskModeRoundTrip(t *testing.T) {
	for _, mode := range []kqr.SimilarityMode{kqr.ContextualWalk, kqr.Cooccurrence} {
		warm, path := warmAndSave(t, mode)
		disk, err := kqr.Open(bibliographyDataset(t), kqr.Options{
			Similarity:   mode,
			ArtifactPath: path,
			DiskMode:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if info := disk.Artifact(); !info.Loaded || !info.Disk || info.FormatVersion != 2 {
			t.Fatalf("mode %v: disk provenance wrong: %+v", mode, info)
		}
		if s := disk.GraphStats(); !strings.Contains(s, "disk mode") {
			t.Fatalf("mode %v: GraphStats lacks disk provenance: %q", mode, s)
		}
		stats, ok := disk.DiskTables()
		if !ok || stats.Tables == 0 || stats.ResidentBytes > stats.Budget {
			t.Fatalf("mode %v: disk stats wrong: %+v", mode, stats)
		}
		for _, term := range warm.Vocabulary() {
			want, err := warm.SimilarTerms(term, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := disk.SimilarTerms(term, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("mode %v term %q: %d vs %d similar terms", mode, term, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("mode %v term %q entry %d: %+v != %+v", mode, term, i, got[i], want[i])
				}
			}
			wantC, err := warm.CloseTerms(term, 10, "")
			if err != nil {
				t.Fatal(err)
			}
			gotC, err := disk.CloseTerms(term, 10, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(wantC) != len(gotC) {
				t.Fatalf("mode %v term %q: %d vs %d close terms", mode, term, len(gotC), len(wantC))
			}
			for i := range wantC {
				if wantC[i] != gotC[i] {
					t.Fatalf("mode %v term %q close entry %d: %+v != %+v", mode, term, i, gotC[i], wantC[i])
				}
			}
		}
		if stats, _ := disk.DiskTables(); stats.Misses == 0 {
			t.Fatalf("mode %v: no page faults — tables not actually disk-backed: %+v", mode, stats)
		}
	}
}

// TestDiskModeReformulate: end-to-end suggestions must match between a
// warmed in-RAM engine and a disk-mode engine over the same snapshot.
func TestDiskModeReformulate(t *testing.T) {
	warm, path := warmAndSave(t, kqr.ContextualWalk)
	disk, err := kqr.Open(bibliographyDataset(t), kqr.Options{
		ArtifactPath: path,
		DiskMode:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range [][]string{{"probabilistic", "databases"}, {"uncertain", "data"}} {
		want, err := warm.Reformulate(query, 5)
		if err != nil {
			continue // term not in corpus: same answer both sides
		}
		got, err := disk.Reformulate(query, 5)
		if err != nil {
			t.Fatalf("disk engine failed where warm succeeded: %v", err)
		}
		if len(want) != len(got) {
			t.Fatalf("query %v: %d vs %d suggestions", query, len(got), len(want))
		}
		for i := range want {
			if want[i].Score != got[i].Score || strings.Join(want[i].Terms, " ") != strings.Join(got[i].Terms, " ") {
				t.Fatalf("query %v suggestion %d: %+v != %+v", query, i, got[i], want[i])
			}
		}
	}
}

// TestDiskModeErrors: misconfiguration must fail at Open with clear
// errors, not fall back silently.
func TestDiskModeErrors(t *testing.T) {
	if _, err := kqr.Open(bibliographyDataset(t), kqr.Options{DiskMode: true}); err == nil {
		t.Fatal("disk mode without ArtifactPath accepted")
	}
	// A v1 snapshot is refused by version, and disk mode never falls
	// back.
	if _, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: v1File(t), DiskMode: true}); !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("disk mode over a v1 snapshot: err = %v, want ErrVersion", err)
	}
	// A budget smaller than the resident index must be rejected.
	_, paged := warmAndSave(t, kqr.ContextualWalk)
	if _, err := kqr.Open(bibliographyDataset(t), kqr.Options{
		ArtifactPath: paged, DiskMode: true, TableMemBudget: 64,
	}); err == nil {
		t.Fatal("impossible budget accepted")
	}
}

// TestDiskModeReload: ReloadArtifacts in disk mode must swap in a new
// generation with a fresh store and retire (and close) the old one;
// queries keep answering bit-identically throughout.
func TestDiskModeReload(t *testing.T) {
	warm, path := warmAndSave(t, kqr.ContextualWalk)
	retired := make(chan uint64, 4)
	disk, err := kqr.Open(bibliographyDataset(t), kqr.Options{
		ArtifactPath: path,
		DiskMode:     true,
		OnRetire:     func(epoch uint64) { retired <- epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	term := warm.Vocabulary()[0]
	before, err := disk.SimilarTerms(term, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.ReloadArtifacts(path); err != nil {
		t.Fatal(err)
	}
	select {
	case epoch := <-retired:
		if epoch != 1 {
			t.Fatalf("retired epoch %d, want 1", epoch)
		}
	default:
		t.Fatal("old generation not retired")
	}
	after, err := disk.SimilarTerms(term, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("reload changed results: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("reload changed results at %d: %+v != %+v", i, after[i], before[i])
		}
	}
	if stats, ok := disk.DiskTables(); !ok || stats.Tables == 0 {
		t.Fatalf("reloaded generation has no disk store: %+v", stats)
	}
	if epoch := disk.Epoch(); epoch != 2 {
		t.Fatalf("epoch = %d, want 2 after one reload", epoch)
	}
}

// TestDiskModeSaveRefused: a disk-mode engine's caches hold none of the
// paged tables, so saving from it must fail typed instead of writing a
// valid-looking file with only the rows recomputed since Open.
func TestDiskModeSaveRefused(t *testing.T) {
	_, path := warmAndSave(t, kqr.ContextualWalk)
	disk, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: path, DiskMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disk.SimilarTerms("probabilistic", 5); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "hollow.snapshot")
	if err := disk.SaveArtifactsPaged(out); !errors.Is(err, kqr.ErrDiskModeSave) {
		t.Fatalf("err = %v, want ErrDiskModeSave", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("refused save left a file behind: %v", err)
	}
}

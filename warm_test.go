package kqr_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"kqr"
)

// TestEngineWarm warms the full vocabulary and checks the result is the
// complete offline stage: a cold engine opened over the saved snapshot
// reproduces the warm engine's suggestions exactly.
func TestEngineWarm(t *testing.T) {
	for _, mode := range []kqr.SimilarityMode{kqr.ContextualWalk, kqr.Cooccurrence} {
		eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{Similarity: mode, PrecomputeWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Warm(context.Background()); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		path := filepath.Join(t.TempDir(), "offline.snapshot")
		if err := eng.SaveArtifactsPaged(path); err != nil {
			t.Fatal(err)
		}
		cold, err := kqr.Open(bibliographyDataset(t), kqr.Options{Similarity: mode, ArtifactPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if !cold.Artifact().Loaded {
			t.Fatalf("mode %v: snapshot not loaded: %+v", mode, cold.Artifact())
		}
		want, err := eng.Reformulate([]string{"uncertain", "data"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cold.Reformulate([]string{"uncertain", "data"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: warmed relations do not reproduce suggestions: %v vs %v", mode, got, want)
		}
	}
}

func TestEngineWarmCancelled(t *testing.T) {
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Warm(ctx); err == nil {
		t.Fatal("cancelled Warm returned nil")
	}
}

package kqr

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"kqr/internal/artifact"
	"kqr/internal/live"
)

// ArtifactInfo reports the provenance of the engine's offline tables:
// whether they were restored from a snapshot file or are computed live.
// Operators use it (via GraphStats or directly) to tell which mode a
// replica is running in.
type ArtifactInfo struct {
	// Loaded is true when the offline tables were restored from a
	// snapshot file at Open (or by a later ReloadArtifacts call).
	Loaded bool
	// Path is the snapshot file the tables came from, when Loaded.
	Path string
	// FormatVersion is the snapshot's on-disk format version, when
	// Loaded.
	FormatVersion uint16
	// FallbackReason explains why a requested snapshot was not used
	// (Options.ArtifactPath set but the load failed); empty otherwise.
	FallbackReason string
	// Disk is true when the tables are served page-by-page from the
	// snapshot file (Options.DiskMode) rather than decoded into RAM.
	Disk bool
}

// String renders the provenance the way GraphStats embeds it.
func (a ArtifactInfo) String() string {
	if a.Loaded && a.Disk {
		return fmt.Sprintf("paged snapshot v%d (%s, disk mode)", a.FormatVersion, a.Path)
	}
	if a.Loaded {
		return fmt.Sprintf("snapshot v%d (%s)", a.FormatVersion, a.Path)
	}
	return "computed"
}

// Artifact returns the provenance of the engine's offline tables. Safe
// to call concurrently with ReloadArtifacts.
func (e *Engine) Artifact() ArtifactInfo {
	e.artifactMu.Lock()
	defer e.artifactMu.Unlock()
	return e.artifact
}

// setArtifact records provenance under the lock so concurrent readers
// (Artifact, GraphStats) never see a torn value.
func (e *Engine) setArtifact(a ArtifactInfo) {
	e.artifactMu.Lock()
	e.artifact = a
	e.artifactMu.Unlock()
}

// Warm runs the offline stage for the entire term vocabulary: term
// similarity and closeness for every term node in the TAT graph, fanned
// out over Options.PrecomputeWorkers goroutines. After Warm returns nil
// every reformulation request is served from warmed caches — no query
// ever pays first-touch walk latency. Cancel ctx to stop early; the
// partial warm is kept and the context's error returned.
func (e *Engine) Warm(ctx context.Context) error {
	g := e.cur()
	nodes := g.TG.TermNodeIDs()
	if err := g.Sim.Precompute(ctx, nodes); err != nil {
		return fmt.Errorf("kqr: warming similarity: %w", err)
	}
	if err := g.Clos.Precompute(ctx, nodes); err != nil {
		return fmt.Errorf("kqr: warming closeness: %w", err)
	}
	// Pack after the full warm so every query is served from the flat
	// CSR tables rather than the map caches.
	g.Sim.Pack()
	g.Clos.Pack()
	return nil
}

// ErrDiskModeSave reports a SaveArtifactsPaged call on a disk-mode
// engine. Disk mode serves the tables from the snapshot's pages and
// leaves the in-RAM caches a save reads empty, so the file would look
// valid while holding only the rows recomputed since Open. Save from an
// engine opened without DiskMode instead. Match it with errors.Is.
var ErrDiskModeSave = errors.New("kqr: a disk-mode engine cannot save its tables (they stay on disk, not in the caches a save reads)")

// SaveArtifactsPaged writes the engine's offline tables (similarity and
// closeness, plus the vocabulary that validates them) as a KQRART v2
// snapshot: each table split into a resident page index and a
// page-aligned entry blob. A later Open with Options.ArtifactPath
// restores it instead of recomputing, and with Options.DiskMode serves
// it without decoding the tables into RAM. Save after Warm to capture
// the complete offline stage. The write is atomic: a temp file in the
// same directory is renamed over path only after a successful write, so
// a crash never leaves a half-written snapshot behind. A disk-mode
// engine returns ErrDiskModeSave.
func (e *Engine) SaveArtifactsPaged(path string) error {
	if e.opts.DiskMode {
		return ErrDiskModeSave
	}
	g := e.cur()
	snap, err := live.ArtifactSnapshot(g, live.Fingerprint(g, e.cfg))
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".kqr-snapshot-*")
	if err != nil {
		return fmt.Errorf("kqr: saving artifacts: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, 1<<20)
	err = snap.WritePaged(bw, artifact.PagedOptions{})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("kqr: saving artifacts to %s: %w", path, err)
	}
	return nil
}

// loadInto fills g from the snapshot at path. g must be a generation no
// reader can see yet — Open's initial generation before the manager
// publishes it, or the fresh one ReloadArtifacts builds — so no query
// ever mixes pre- and post-load tables. In disk mode g's tables become
// page-backed views of the file; otherwise the file is decoded into
// g's caches. On error g's tables are left as built.
func (e *Engine) loadInto(g *live.Generation, path string) (ArtifactInfo, error) {
	info := ArtifactInfo{Loaded: true, Path: path, FormatVersion: artifact.FormatVersion, Disk: e.opts.DiskMode}
	if e.opts.DiskMode {
		if err := e.attachDiskTables(g, path); err != nil {
			return ArtifactInfo{}, err
		}
		return info, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return ArtifactInfo{}, fmt.Errorf("kqr: loading artifacts: %w", err)
	}
	defer f.Close()
	snap, err := artifact.Load(bufio.NewReaderSize(f, 1<<20), live.Fingerprint(g, e.cfg))
	if err == nil {
		err = live.RestoreArtifact(g, snap)
	}
	if err != nil {
		return ArtifactInfo{}, fmt.Errorf("kqr: loading artifacts from %s: %w", path, err)
	}
	return info, nil
}

// ReloadArtifacts builds a fresh generation over the current corpus,
// fills it from the snapshot at path, and atomically swaps it in as the
// next epoch (mode "reload") — the SIGHUP path. The snapshot must carry
// this engine's exact fingerprint (same corpus, graph and offline
// options) and an intact vocabulary, or a wrapped artifact sentinel
// error (artifact.ErrFingerprint, artifact.ErrChecksum, …) is returned
// and the serving generation is left untouched. Queries racing the
// reload see either the old tables or the new ones, wholesale. On
// success Artifact reports the new provenance (any earlier
// FallbackReason clears).
func (e *Engine) ReloadArtifacts(path string) error {
	g, err := live.Build(e.cur().DB, e.cfg)
	if err != nil {
		return fmt.Errorf("kqr: reloading artifacts: %w", err)
	}
	info, err := e.loadInto(g, path)
	if err != nil {
		return err
	}
	if _, err := e.mgr.Swap(g); err != nil {
		if g.Pager != nil {
			g.Pager.Close()
		}
		return fmt.Errorf("kqr: reloading artifacts: %w", err)
	}
	e.setArtifact(info)
	return nil
}

package live

import (
	"fmt"
	"strings"

	"kqr/internal/artifact"
	"kqr/internal/cooccur"
	"kqr/internal/graph"
	"kqr/internal/randomwalk"
)

// Fingerprint identifies everything a generation's offline tables
// depend on: the options that change what the extractors compute, the
// built graph's shape and classes, and the corpus row counts. A
// snapshot saved from one generation is valid for another exactly when
// their fingerprints match, and a replication follower must reproduce
// its leader's fingerprint bit for bit. Snapshot save and load, disk
// attach and the replication handshake all use this one string.
func Fingerprint(g *Generation, cfg Config) string {
	damping := cfg.Damping
	if damping == 0 {
		damping = 0.8
	}
	closMax := cfg.ClosenessMaxLen
	if closMax == 0 {
		closMax = 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "kqr mode=%s damping=%g closmax=%d closbeam=%d phrases=%t plurals=%t",
		cfg.Mode, damping, closMax, cfg.ClosenessBeam, cfg.Phrases, cfg.FoldPlurals)
	fmt.Fprintf(&b, " nodes=%d terms=%d edges=%d", g.TG.NumNodes(), g.TG.NumTermNodes(), g.TG.CSR().NumEdges())
	fmt.Fprintf(&b, " classes=%s", strings.Join(g.TG.Classes(), ","))
	fmt.Fprintf(&b, " corpus=%s", g.TG.DB().Stats())
	return b.String()
}

// ArtifactSnapshot assembles the in-memory artifact snapshot of one
// generation's offline stage: the full vocabulary plus whichever
// similarity table the generation's mode maintains, and the closeness
// table, stamped with the caller's fingerprint. The root package's
// SaveArtifactsPaged and the replication leader's bootstrap stream both
// funnel through it.
func ArtifactSnapshot(g *Generation, fingerprint string) (*artifact.Snapshot, error) {
	snap := &artifact.Snapshot{
		Fingerprint: fingerprint,
		Classes:     g.TG.Classes(),
		Closeness:   g.Clos.Snapshot(),
	}
	classIndex := make(map[string]int32, len(snap.Classes))
	for i, c := range snap.Classes {
		classIndex[c] = int32(i)
	}
	for _, node := range g.TG.TermNodeIDs() {
		snap.Vocabulary = append(snap.Vocabulary, artifact.Term{
			Node:  node,
			Class: classIndex[g.TG.Class(node)],
			Text:  g.TG.TermText(node),
		})
	}
	switch sim := g.Sim.(type) {
	case *randomwalk.Extractor:
		snap.Walk = sim.Snapshot()
	case *cooccur.Extractor:
		snap.Cooccur = sim.Snapshot()
	default:
		return nil, fmt.Errorf("live: similarity provider %T does not support snapshots", g.Sim)
	}
	return snap, nil
}

// RestoreArtifact validates the snapshot's vocabulary against the
// generation's graph node by node, then installs the tables into the
// extractors. The vocabulary check backstops any fingerprint check the
// caller ran: node ids are only meaningful if every term node still
// carries the same text and class. Failures wrap
// artifact.ErrFingerprint.
func RestoreArtifact(g *Generation, snap *artifact.Snapshot) error {
	if err := ValidateVocabulary(g, snap.Classes, snap.Vocabulary); err != nil {
		return err
	}
	switch sim := g.Sim.(type) {
	case *randomwalk.Extractor:
		if snap.Walk == nil {
			return fmt.Errorf("%w: snapshot has no random-walk section", artifact.ErrFingerprint)
		}
		sim.Restore(snap.Walk)
	case *cooccur.Extractor:
		if snap.Cooccur == nil {
			return fmt.Errorf("%w: snapshot has no co-occurrence section", artifact.ErrFingerprint)
		}
		sim.Restore(snap.Cooccur)
	default:
		return fmt.Errorf("live: similarity provider %T does not support snapshots", g.Sim)
	}
	if snap.Closeness == nil {
		snap.Closeness = make(map[graph.NodeID]map[graph.NodeID]float64)
	}
	g.Clos.Restore(snap.Closeness)
	return nil
}

// ValidateVocabulary checks a snapshot's (or paged index's) vocabulary
// against the generation's graph node by node — the backstop behind
// every restore and disk attach: node ids in the tables are only
// meaningful if every term node still carries the same text and class.
// Failures wrap artifact.ErrFingerprint.
func ValidateVocabulary(g *Generation, classes []string, vocab []artifact.Term) error {
	if len(vocab) != g.TG.NumTermNodes() {
		return fmt.Errorf("%w: snapshot has %d vocabulary terms, graph has %d",
			artifact.ErrFingerprint, len(vocab), g.TG.NumTermNodes())
	}
	for _, t := range vocab {
		if int(t.Node) < 0 || int(t.Node) >= g.TG.NumNodes() ||
			int(t.Class) >= len(classes) ||
			g.TG.TermText(t.Node) != t.Text ||
			g.TG.Class(t.Node) != classes[t.Class] {
			return fmt.Errorf("%w: vocabulary entry for node %d (%q) does not match the graph",
				artifact.ErrFingerprint, t.Node, t.Text)
		}
	}
	return nil
}

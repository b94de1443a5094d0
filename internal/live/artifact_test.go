package live

import (
	"testing"

	"kqr/internal/testcorpus"
)

// TestFingerprintGolden pins the fingerprint string byte for byte.
// Saved snapshots carry it, so any change to its wording or field order
// makes every existing snapshot fall back to recomputation (and every
// disk-mode open fail with ErrFingerprint).
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, "kqr mode=contextual-walk damping=0.8 closmax=4 closbeam=0 phrases=false plurals=false nodes=55 terms=34 edges=68 classes=conferences,papers,authors,conferences.name,papers.title,authors.name corpus=4 tables, 35 tuples: authors=7 conferences=3 papers=11 writes=14"},
		{Config{Mode: ModeCooccur, Damping: 0.65, ClosenessMaxLen: 3, ClosenessBeam: 8, Phrases: true, FoldPlurals: true},
			"kqr mode=cooccurrence damping=0.65 closmax=3 closbeam=8 phrases=true plurals=true nodes=55 terms=34 edges=70 classes=conferences,papers,authors,conferences.name,papers.title,authors.name corpus=4 tables, 35 tuples: authors=7 conferences=3 papers=11 writes=14"},
	} {
		db, err := testcorpus.New()
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(db, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := Fingerprint(g, tc.cfg); got != tc.want {
			t.Errorf("Fingerprint =\n  %q\nwant\n  %q", got, tc.want)
		}
	}
}

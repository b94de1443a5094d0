package artifact

import (
	"errors"

	"kqr/internal/graph"
)

// FormatVersion is the snapshot format this package reads and writes:
// KQRART v2, the paged layout (see paged.go). Load and ReadPagedIndex
// reject any other version with ErrVersion; a v1 file (the retired
// f64 layout) gets a message saying how to convert it.
const FormatVersion uint16 = 2

// magic opens every snapshot file.
var magic = [6]byte{'K', 'Q', 'R', 'A', 'R', 'T'}

// Section ids. New kinds must take fresh ids; readers skip ids they do
// not know. Ids 2-4 carried v1's f64 tables and stay retired.
const (
	secVocabulary     uint8 = 1
	secWalkPaged      uint8 = 5
	secCooccurPaged   uint8 = 6
	secClosenessPaged uint8 = 7
)

// Sentinel errors classifying why a snapshot failed to load. They are
// wrapped with positional detail; test with errors.Is.
var (
	// ErrMagic means the file does not start with the snapshot magic —
	// it is not a kqr artifact at all.
	ErrMagic = errors.New("artifact: bad magic (not a kqr snapshot)")
	// ErrVersion means the file's format version is not FormatVersion.
	// For a v1 file the message says how to convert it.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrChecksum means a section (or the header) failed its CRC.
	ErrChecksum = errors.New("artifact: checksum mismatch")
	// ErrTruncated means the file ended mid-header or mid-section, or a
	// section's internal counts disagree with its byte length.
	ErrTruncated = errors.New("artifact: truncated or corrupt snapshot")
	// ErrFingerprint means the snapshot was computed over a different
	// corpus, graph or offline configuration than the caller's.
	ErrFingerprint = errors.New("artifact: corpus fingerprint mismatch")
)

// Term is one vocabulary entry: a term node with its class (an index
// into Snapshot.Classes) and text. The vocabulary lets a loader verify
// node ids still mean the same terms before trusting any table.
type Term struct {
	// Node is the term's node id in the TAT graph.
	Node graph.NodeID
	// Class indexes Snapshot.Classes ("table.column").
	Class int32
	// Text is the normalized term text.
	Text string
}

// Snapshot is the decoded (or to-be-encoded) content of an artifact
// file: the fingerprint plus one in-memory table per section. Nil maps
// mean the section is absent — an engine in random-walk mode has no
// co-occurrence table and vice versa.
type Snapshot struct {
	// Fingerprint identifies the corpus, graph shape and offline
	// options the tables were computed over.
	Fingerprint string
	// Classes are the class labels the vocabulary indexes into.
	Classes []string
	// Vocabulary lists every term node, in ascending node order.
	Vocabulary []Term
	// Walk holds the random-walk similar-term lists per start node.
	Walk map[graph.NodeID][]graph.Scored
	// Cooccur holds the co-occurrence similar-term lists per start node.
	Cooccur map[graph.NodeID][]graph.Scored
	// Closeness holds the closeness vectors per source node.
	Closeness map[graph.NodeID]map[graph.NodeID]float64
}

// Package artifact defines the persistent snapshot format for the
// offline stage of the reformulation pipeline: the term vocabulary,
// the random-walk similar-term tables, the closeness tables, and the
// co-occurrence count tables that the extractors compute over the TAT
// graph (paper §IV). Persisting them converts the offline stage from a
// per-process cost into a durable artifact — a replica restarts by
// streaming the snapshot from disk instead of re-walking the graph.
//
// # File format
//
// A snapshot is a KQRART v2 binary file: a fixed header followed by
// length-prefixed, individually checksummed sections (all integers are
// little-endian):
//
//	magic "KQRART" (6 bytes)
//	format version (uint16, 2)
//	fingerprint length (uint32), fingerprint bytes (UTF-8)
//	CRC-32/IEEE of every preceding header byte (uint32)
//
//	then, repeated until EOF, one section per table kind:
//	  section id     (uint8: 1 vocabulary, 5 walk, 6 cooccur, 7 closeness)
//	  payload length (uint64)
//	  payload        (section-specific encoding, see DESIGN.md §10)
//	  CRC-32/IEEE over the id, the length field and the payload (uint32)
//
// Each table payload is paged: a small resident prelude (CSR row
// offsets, presence bitmap, page index, per-page CRCs, prelude CRC)
// followed by a row-aligned blob of u32-node/f32-score entries. Load
// decodes a file sequentially into a Snapshot; ReadPagedIndex reads
// only the header, vocabulary and preludes so internal/diskmode can
// fault blob pages on demand.
//
// The fingerprint ties a snapshot to the exact corpus, graph shape and
// offline options it was computed over; callers pass their own
// fingerprint to Load and get ErrFingerprint on mismatch before any
// table is decoded. Unknown section ids are checksummed and skipped, so
// newer writers can add sections without breaking older readers.
//
// Version 1 (f64 scores, unpaged tables) is no longer read: Load and
// ReadPagedIndex reject it with ErrVersion and a message naming the
// conversion — re-save from a warmed engine with
// Engine.SaveArtifactsPaged or kqr-server -snapshot-save.
//
// # Errors
//
// Corruption and mismatch are reported as wrapped sentinel errors —
// ErrMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrFingerprint —
// so callers can errors.Is-classify a failed load and fall back to
// live computation:
//
//	snap, err := artifact.Load(f, fp)
//	if errors.Is(err, artifact.ErrFingerprint) {
//	    // corpus changed since the snapshot was taken: recompute
//	}
package artifact

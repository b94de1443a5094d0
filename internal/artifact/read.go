package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"kqr/internal/graph"
)

// maxString bounds any single encoded string (fingerprint, class label,
// term text); anything longer marks a corrupt length field.
const maxString = 1 << 20

// checkVersion rejects every format version but FormatVersion. A v1
// file is the one a user is likely to hold, so its message names the
// conversion: re-save the tables from a warmed engine.
func checkVersion(version uint16) error {
	if version == 1 {
		return fmt.Errorf("%w: file is KQRART v1 (f64 tables), which this build no longer reads; "+
			"convert it by re-saving with kqr-server -snapshot-save or Engine.SaveArtifactsPaged (writes v%d)",
			ErrVersion, FormatVersion)
	}
	if version != FormatVersion {
		return fmt.Errorf("%w: file has v%d, this build reads v%d", ErrVersion, version, FormatVersion)
	}
	return nil
}

// Read decodes a snapshot without checking its fingerprint. Most
// callers should use Load, which rejects mismatched corpora before
// decoding any table.
func Read(r io.Reader) (*Snapshot, error) {
	return Load(r, "")
}

// Load decodes a snapshot from r, verifying magic, format version and
// every section checksum. A non-empty fingerprint must match the one in
// the file or Load fails with ErrFingerprint immediately after the
// header — no table bytes are read for a stale snapshot. Failures are
// wrapped sentinel errors (ErrMagic, ErrVersion, ErrChecksum,
// ErrTruncated, ErrFingerprint); test with errors.Is.
func Load(r io.Reader, fingerprint string) (*Snapshot, error) {
	rr := &reader{r: r}

	var m [6]byte
	rr.read(m[:])
	if rr.err != nil {
		return nil, rr.err
	}
	if !bytes.Equal(m[:], magic[:]) {
		return nil, fmt.Errorf("%w: file starts with % x", ErrMagic, m[:])
	}
	version := rr.u16()
	if rr.err != nil {
		return nil, rr.err
	}
	// Version gates the rest of the layout, so it is checked before the
	// header checksum: an old or future file is "unsupported", not
	// "corrupt".
	if err := checkVersion(version); err != nil {
		return nil, err
	}
	fp := rr.str(maxString)
	headerCRC := rr.crc
	stored := rr.rawU32()
	if rr.err != nil {
		return nil, rr.err
	}
	if stored != headerCRC {
		return nil, fmt.Errorf("%w: header CRC %08x, stored %08x", ErrChecksum, headerCRC, stored)
	}
	if fingerprint != "" && fp != fingerprint {
		return nil, fmt.Errorf("%w: snapshot %q, corpus %q", ErrFingerprint, fp, fingerprint)
	}

	snap := &Snapshot{Fingerprint: fp}
	for {
		var idb [1]byte
		if _, err := io.ReadFull(rr.r, idb[:]); err != nil {
			if err == io.EOF {
				return snap, nil // clean end after the last section
			}
			return nil, fmt.Errorf("%w: reading section id: %v", ErrTruncated, err)
		}
		// Each section's CRC covers its id, length field and payload.
		rr.crc = crc32.Update(0, crc32.IEEETable, idb[:])
		length := rr.u64()
		rr.limit, rr.remaining = true, length
		switch idb[0] {
		case secVocabulary:
			rr.vocabulary(snap)
		case secWalkPaged:
			snap.Walk = rr.pagedLists()
		case secCooccurPaged:
			snap.Cooccur = rr.pagedLists()
		case secClosenessPaged:
			snap.Closeness = rr.pagedCloseness()
		default:
			rr.skip(length) // future section kind: checksum and ignore
		}
		rr.limit = false
		if rr.err != nil {
			return nil, rr.err
		}
		if rr.remaining != 0 {
			return nil, fmt.Errorf("%w: section %d payload shorter than declared (%d bytes unread)",
				ErrTruncated, idb[0], rr.remaining)
		}
		sectionCRC := rr.crc
		stored := rr.rawU32()
		if rr.err != nil {
			return nil, rr.err
		}
		if stored != sectionCRC {
			return nil, fmt.Errorf("%w: section %d CRC %08x, stored %08x", ErrChecksum, idb[0], sectionCRC, stored)
		}
	}
}

// reader streams little-endian primitives from r, accumulating a
// CRC-32, enforcing the current section's byte budget, and holding a
// sticky error so decoding code reads linearly.
type reader struct {
	r         io.Reader
	crc       uint32
	crc2      uint32 // secondary CRC for the paged prelude, when dual
	dual      bool
	limit     bool   // inside a section payload?
	remaining uint64 // payload bytes left when limit is set
	err       error
	buf       [8]byte
	scratch   []byte // reused bulk-read buffer for entry blocks
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// need checks that n more payload bytes are available before any
// allocation or read sized by an untrusted count.
func (r *reader) need(n uint64) bool {
	if r.err != nil {
		return false
	}
	if r.limit && n > r.remaining {
		r.fail(fmt.Errorf("%w: section claims %d bytes beyond its declared length", ErrTruncated, n-r.remaining))
		return false
	}
	return true
}

// needCount checks that count records of per bytes each fit in the
// remaining payload, without the count*per multiplication that a
// hostile count could overflow.
func (r *reader) needCount(count, per uint64) bool {
	if r.err != nil {
		return false
	}
	if r.limit && count > r.remaining/per {
		r.fail(fmt.Errorf("%w: section claims %d records of %d bytes with %d bytes left", ErrTruncated, count, per, r.remaining))
		return false
	}
	return true
}

func (r *reader) read(p []byte) {
	if !r.need(uint64(len(p))) {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.fail(fmt.Errorf("%w: unexpected end of file", ErrTruncated))
		} else {
			r.fail(fmt.Errorf("artifact: reading snapshot: %w", err))
		}
		return
	}
	if r.limit {
		r.remaining -= uint64(len(p))
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p)
	if r.dual {
		r.crc2 = crc32.Update(r.crc2, crc32.IEEETable, p)
	}
}

// block bulk-reads n bytes into the reused scratch buffer — one read
// and one CRC update per record batch instead of one per field, which
// dominates load time on large tables. The returned slice is valid
// until the next block call; callers must check r.err (n may be zero,
// in which case the slice is legitimately empty).
func (r *reader) block(n uint64) []byte {
	if !r.need(n) {
		return nil
	}
	if uint64(cap(r.scratch)) < n {
		r.scratch = make([]byte, n)
	}
	b := r.scratch[:n]
	r.read(b)
	return b
}

func (r *reader) u16() uint16 { r.read(r.buf[:2]); return binary.LittleEndian.Uint16(r.buf[:2]) }
func (r *reader) u32() uint32 { r.read(r.buf[:4]); return binary.LittleEndian.Uint32(r.buf[:4]) }
func (r *reader) u64() uint64 { r.read(r.buf[:8]); return binary.LittleEndian.Uint64(r.buf[:8]) }

func (r *reader) str(max uint64) string {
	n := r.u32()
	if uint64(n) > max {
		r.fail(fmt.Errorf("%w: %d-byte string exceeds the %d-byte bound", ErrTruncated, n, max))
		return ""
	}
	if !r.need(uint64(n)) {
		return ""
	}
	b := make([]byte, n)
	r.read(b)
	return string(b)
}

// rawU32 reads a stored checksum: outside both the CRC accumulation and
// the section byte budget.
func (r *reader) rawU32() uint32 {
	if r.err != nil {
		return 0
	}
	var b [4]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.fail(fmt.Errorf("%w: unexpected end of file in checksum", ErrTruncated))
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

// skip consumes n payload bytes through the CRC.
func (r *reader) skip(n uint64) {
	var chunk [4096]byte
	for n > 0 && r.err == nil {
		c := n
		if c > uint64(len(chunk)) {
			c = uint64(len(chunk))
		}
		r.read(chunk[:c])
		n -= c
	}
}

// vocabulary decodes the vocabulary section into snap.
func (r *reader) vocabulary(snap *Snapshot) {
	classCount := r.u32()
	if !r.needCount(uint64(classCount), 4) { // each class is at least a length field
		return
	}
	snap.Classes = make([]string, 0, classCount)
	for i := uint32(0); i < classCount && r.err == nil; i++ {
		snap.Classes = append(snap.Classes, r.str(maxString))
	}
	termCount := r.u64()
	const minTerm = 4 + 4 + 4 // node + class + empty text
	if !r.needCount(termCount, minTerm) {
		return
	}
	snap.Vocabulary = make([]Term, 0, termCount)
	for i := uint64(0); i < termCount && r.err == nil; i++ {
		node := r.u32()
		class := r.u32()
		text := r.str(maxString)
		if class >= classCount {
			r.fail(fmt.Errorf("%w: vocabulary entry %d references class %d of %d", ErrTruncated, i, class, classCount))
			return
		}
		snap.Vocabulary = append(snap.Vocabulary, Term{Node: graph.NodeID(node), Class: int32(class), Text: text})
	}
}

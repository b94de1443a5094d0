package artifact

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"sort"

	"kqr/internal/graph"
)

// writer streams little-endian primitives to w while maintaining a
// running CRC-32 and a sticky error, so encoding code reads linearly.
type writer struct {
	w   io.Writer
	crc uint32
	err error
	buf [8]byte
}

func (w *writer) write(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	_, w.err = w.w.Write(p)
}

func (w *writer) u8(v uint8)   { w.buf[0] = v; w.write(w.buf[:1]) }
func (w *writer) u16(v uint16) { binary.LittleEndian.PutUint16(w.buf[:2], v); w.write(w.buf[:2]) }
func (w *writer) u32(v uint32) { binary.LittleEndian.PutUint32(w.buf[:4], v); w.write(w.buf[:4]) }
func (w *writer) u64(v uint64) { binary.LittleEndian.PutUint64(w.buf[:8], v); w.write(w.buf[:8]) }
func (w *writer) str(s string) { w.u32(uint32(len(s))); w.write([]byte(s)) }

// checksum emits the running CRC (the CRC itself is excluded from the
// running value) and resets it for the next region.
func (w *writer) checksum() {
	crc := w.crc
	binary.LittleEndian.PutUint32(w.buf[:4], crc)
	if w.err == nil {
		_, w.err = w.w.Write(w.buf[:4])
	}
	w.crc = 0
}

// writeSection frames one section: id, payload length (computed by the
// sizing pass, so the payload itself is never buffered), payload, CRC
// over all three.
func (s *Snapshot) writeSection(ww *writer, id uint8, size uint64, payload func(*writer)) {
	ww.u8(id)
	ww.u64(size)
	payload(ww)
	ww.checksum()
}

// vocabularySize returns the exact encoded byte length of the
// vocabulary section payload.
func (s *Snapshot) vocabularySize() uint64 {
	n := uint64(4) // class count
	for _, c := range s.Classes {
		n += 4 + uint64(len(c))
	}
	n += 8 // term count
	for _, t := range s.Vocabulary {
		n += 4 + 4 + 4 + uint64(len(t.Text))
	}
	return n
}

func (s *Snapshot) writeVocabulary(ww *writer) {
	ww.u32(uint32(len(s.Classes)))
	for _, c := range s.Classes {
		ww.str(c)
	}
	ww.u64(uint64(len(s.Vocabulary)))
	for _, t := range s.Vocabulary {
		ww.u32(uint32(t.Node))
		ww.u32(uint32(t.Class))
		ww.str(t.Text)
	}
}

// sortedKeys returns the map's keys in ascending node order.
func sortedKeys[V any](m map[graph.NodeID]V) []graph.NodeID {
	keys := make([]graph.NodeID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

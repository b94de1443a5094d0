package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"kqr/internal/graph"
)

// pagedSample is sample() with float32-exact scores (the paged format
// stores f32; the extractors publish only quantized values, so this is
// the realistic case) and enough rows to spill multiple pages at tiny
// page sizes.
func pagedSample() *Snapshot {
	s := sample()
	s.Walk[6] = []graph.Scored{{Node: 3, Score: 0.75}, {Node: 4, Score: 0.5}, {Node: 5, Score: 0.0625}}
	s.Closeness[5] = map[graph.NodeID]float64{3: 0.25, 4: 0.75}
	return s
}

func encodePaged(t *testing.T, s *Snapshot, pageBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WritePaged(&buf, PagedOptions{PageBytes: pageBytes}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPagedRoundTrip: Load must decode a v2 file back into the same
// snapshot, at the default page size and at the floor (forcing one row
// per page and oversized-row pages).
func TestPagedRoundTrip(t *testing.T) {
	for _, pageBytes := range []int{0, minPageBytes, 1 /* clamps to floor */} {
		want := pagedSample()
		got, err := Read(bytes.NewReader(encodePaged(t, want, pageBytes)))
		if err != nil {
			t.Fatalf("pageBytes=%d: %v", pageBytes, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pageBytes=%d round trip mismatch:\ngot  %+v\nwant %+v", pageBytes, got, want)
		}
	}
}

// TestPagedDeterministicBytes mirrors TestDeterministicBytes at the
// page-size floor, where the page index has many entries.
func TestPagedDeterministicBytes(t *testing.T) {
	a := encodePaged(t, pagedSample(), minPageBytes)
	for i := 0; i < 5; i++ {
		if b := encodePaged(t, pagedSample(), minPageBytes); !bytes.Equal(a, b) {
			t.Fatalf("paged encoding is not deterministic (run %d differs)", i)
		}
	}
}

// TestPagedFlippedByte mirrors TestFlippedByte at the page-size floor
// (many small pages): every single-byte flip must surface as a typed
// error from the sequential loader.
func TestPagedFlippedByte(t *testing.T) {
	enc := encodePaged(t, pagedSample(), minPageBytes)
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x40
		_, err := Read(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at byte %d of %d went undetected", i, len(enc))
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) &&
			!errors.Is(err, ErrVersion) && !errors.Is(err, ErrMagic) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

// TestPagedTruncated mirrors TestTruncated at the page-size floor.
func TestPagedTruncated(t *testing.T) {
	enc := encodePaged(t, pagedSample(), minPageBytes)
	for cut := 0; cut < len(enc); cut++ {
		_, err := Read(bytes.NewReader(enc[:cut]))
		if err == nil {
			continue // clean section boundary: valid shorter file
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestVersionErrorMessage: an unsupported version must fail with
// ErrVersion and name both the found and the supported versions.
func TestVersionErrorMessage(t *testing.T) {
	enc := encode(t, sample())
	enc[6], enc[7] = 3, 0 // version 3
	_, err := Read(bytes.NewReader(enc))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	msg := err.Error()
	for _, want := range []string{"v3", "v2"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Fatalf("error %q does not mention %s", msg, want)
		}
	}
}

// TestReadPagedIndex: the resident index must describe the same rows
// Load decodes, and its blob regions must decode to the same entries.
func TestReadPagedIndex(t *testing.T) {
	want := pagedSample()
	enc := encodePaged(t, want, minPageBytes)
	idx, err := ReadPagedIndex(bytes.NewReader(enc), want.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprint = %q", idx.Fingerprint)
	}
	if len(idx.Vocabulary) != len(want.Vocabulary) || !reflect.DeepEqual(idx.Classes, want.Classes) {
		t.Fatalf("vocabulary mismatch: %+v", idx)
	}
	if len(idx.Tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(idx.Tables))
	}
	walk := idx.Table(TableWalk)
	if walk == nil || idx.Table(TableCooccur) == nil || idx.Table(TableCloseness) == nil {
		t.Fatalf("missing table kinds: %+v", idx.Tables)
	}
	// Decode every present row straight from the blob and compare with
	// the source map — offsets, presence and payload must agree.
	for v := graph.NodeID(0); int(v) < walk.NumNodes; v++ {
		src, ok := want.Walk[v]
		if walk.Has(v) != ok {
			t.Fatalf("node %d: Has = %v, source row exists = %v", v, walk.Has(v), ok)
		}
		if !ok {
			continue
		}
		lo, hi := walk.Off[v], walk.Off[v+1]
		if int(hi-lo) != len(src) {
			t.Fatalf("node %d: row length %d, want %d", v, hi-lo, len(src))
		}
		b := make([]byte, (hi-lo)*pagedEntrySize)
		if _, err := bytes.NewReader(enc).ReadAt(b, walk.BlobOff+int64(lo)*pagedEntrySize); err != nil {
			t.Fatal(err)
		}
		for i, sn := range src {
			node := graph.NodeID(binary.LittleEndian.Uint32(b[i*pagedEntrySize:]))
			score := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*pagedEntrySize+4:])))
			if node != sn.Node || score != sn.Score {
				t.Fatalf("node %d entry %d: (%d, %v), want (%d, %v)", v, i, node, score, sn.Node, sn.Score)
			}
		}
	}
	// Per-page CRCs must verify over the raw blob regions.
	for p := range walk.PageStarts {
		lo := int64(walk.PageStarts[p]) * pagedEntrySize
		hi := int64(walk.PageEnd(p)) * pagedEntrySize
		b := make([]byte, hi-lo)
		if _, err := bytes.NewReader(enc).ReadAt(b, walk.BlobOff+lo); err != nil {
			t.Fatal(err)
		}
		if crc32.ChecksumIEEE(b) != walk.PageCRCs[p] {
			t.Fatalf("page %d CRC mismatch", p)
		}
	}
}

// TestReadPagedIndexRejects: wrong fingerprint, v1 input, and resident
// corruption must all fail typed.
func TestReadPagedIndexRejects(t *testing.T) {
	enc := encodePaged(t, pagedSample(), minPageBytes)
	if _, err := ReadPagedIndex(bytes.NewReader(enc), "other corpus"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("fingerprint: err = %v", err)
	}
	if _, err := ReadPagedIndex(bytes.NewReader(v1Header("")), ""); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 file: err = %v, want ErrVersion", err)
	}
	// Flipping any byte of the resident region (everything before the
	// first blob) must be caught at open; blob flips are the per-page
	// CRCs' job at fault time.
	idx, err := ReadPagedIndex(bytes.NewReader(enc), "")
	if err != nil {
		t.Fatal(err)
	}
	firstBlob := idx.Tables[0].BlobOff
	for i := int64(0); i < firstBlob; i++ {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x40
		got, err := ReadPagedIndex(bytes.NewReader(bad), "")
		if err == nil {
			// A flipped section id byte turns the section unknown and it
			// is skipped — legal (forward compatibility), but the section
			// must then be absent from the index, never silently corrupt.
			if reflect.DeepEqual(got, idx) {
				t.Fatalf("resident flip at byte %d went undetected", i)
			}
			continue
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) &&
			!errors.Is(err, ErrVersion) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrFingerprint) {
			t.Fatalf("resident flip at byte %d: untyped error %v", i, err)
		}
	}
	// A file cut mid-blob must fail at open, not at first fault.
	lastBlobEnd := int64(0)
	for _, tb := range idx.Tables {
		if end := tb.BlobOff + tb.BlobBytes(); end > lastBlobEnd {
			lastBlobEnd = end
		}
	}
	if _, err := ReadPagedIndex(bytes.NewReader(enc[:lastBlobEnd-3]), ""); !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-blob cut: err = %v, want ErrTruncated", err)
	}
}

// TestReadPagedIndexTruncated: every cut of the v2 file must yield a
// typed error or a clean shorter parse, never a panic or untyped error.
func TestReadPagedIndexTruncated(t *testing.T) {
	enc := encodePaged(t, pagedSample(), minPageBytes)
	for cut := 0; cut < len(enc); cut++ {
		_, err := ReadPagedIndex(bytes.NewReader(enc[:cut]), "")
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("cut at %d: untyped error %v", cut, err)
		}
	}
}

// FuzzLoadPaged seeds the fuzzer with a v2 file; the sequential reader
// must classify every mutation as a sentinel.
func FuzzLoadPaged(f *testing.F) {
	var buf bytes.Buffer
	if err := pagedSample().WritePaged(&buf, PagedOptions{PageBytes: minPageBytes}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := Load(bytes.NewReader(data), "fuzz corpus")
		if err == nil {
			t.Fatal("fuzz input with mismatched fingerprint accepted")
		}
		if !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrChecksum) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFingerprint) {
			t.Fatalf("untyped error %v", err)
		}
	})
}

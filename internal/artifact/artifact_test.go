package artifact

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"kqr/internal/graph"
)

// sample builds a snapshot exercising every section kind.
func sample() *Snapshot {
	return &Snapshot{
		Fingerprint: "kqr test fingerprint nodes=7",
		Classes:     []string{"papers.title", "authors.name"},
		Vocabulary: []Term{
			{Node: 3, Class: 0, Text: "probabilistic"},
			{Node: 4, Class: 0, Text: "uncertain"},
			{Node: 5, Class: 1, Text: "christian s. jensen"},
		},
		Walk: map[graph.NodeID][]graph.Scored{
			3: {{Node: 4, Score: 1}, {Node: 5, Score: 0.25}},
			4: {{Node: 3, Score: 1}},
			5: {},
		},
		Cooccur: map[graph.NodeID][]graph.Scored{
			3: {{Node: 5, Score: 1}},
		},
		Closeness: map[graph.NodeID]map[graph.NodeID]float64{
			3: {4: 0.5, 5: 0.125},
			4: {},
		},
	}
}

// encode writes s at the default page size.
func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WritePaged(&buf, PagedOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1Header hand-builds the header of a retired KQRART v1 file: magic,
// version 1, fingerprint, header CRC. Its tables never matter — the
// version check rejects the file before any section is read.
func v1Header(fingerprint string) []byte {
	var buf bytes.Buffer
	ww := &writer{w: &buf}
	ww.write(magic[:])
	ww.u16(1)
	ww.str(fingerprint)
	ww.checksum()
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDeterministicBytes: identical tables serialize to identical
// bytes regardless of map iteration order, so snapshots can be
// content-compared.
func TestDeterministicBytes(t *testing.T) {
	a := encode(t, sample())
	for i := 0; i < 5; i++ {
		if b := encode(t, sample()); !bytes.Equal(a, b) {
			t.Fatalf("encoding is not deterministic (run %d differs)", i)
		}
	}
}

func TestEmptySections(t *testing.T) {
	want := &Snapshot{Fingerprint: "empty", Classes: []string{}, Vocabulary: nil}
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Walk != nil || got.Cooccur != nil || got.Closeness != nil {
		t.Fatalf("absent sections decoded as non-nil: %+v", got)
	}
}

func TestBadMagic(t *testing.T) {
	enc := encode(t, sample())
	enc[0] = 'X'
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrMagic) {
		t.Fatalf("err = %v, want ErrMagic", err)
	}
	if _, err := Read(bytes.NewReader([]byte("GIF89a..."))); !errors.Is(err, ErrMagic) {
		t.Fatalf("foreign file: err = %v, want ErrMagic", err)
	}
}

func TestWrongVersion(t *testing.T) {
	enc := encode(t, sample())
	enc[6] = 0xFF // version is the uint16 after the 6-byte magic
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestFlippedByte flips every byte of the encoding in turn; each flip
// must surface as a typed error (almost always ErrChecksum; length and
// count fields may first trip ErrTruncated or ErrVersion), never as a
// silent success or a panic.
func TestFlippedByte(t *testing.T) {
	enc := encode(t, sample())
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x40
		_, err := Read(bytes.NewReader(bad))
		if err == nil {
			// Flipping a byte of a stored float changes the payload and
			// its CRC together only if the flip is in the CRC field and
			// happens to... it cannot: the CRC covers all payload bytes.
			t.Fatalf("flip at byte %d of %d went undetected", i, len(enc))
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) &&
			!errors.Is(err, ErrVersion) && !errors.Is(err, ErrMagic) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

// TestTruncated cuts the encoding at every length short of a section
// boundary; each cut must fail typed, never hang or panic. (A cut
// exactly at a section boundary yields a shorter but well-formed file —
// the engine layer rejects those via the vocabulary/section checks.)
func TestTruncated(t *testing.T) {
	enc := encode(t, sample())
	for cut := 0; cut < len(enc); cut++ {
		_, err := Read(bytes.NewReader(enc[:cut]))
		if err == nil {
			continue // clean section boundary: valid shorter file
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty file: err = %v, want ErrTruncated", err)
	}
}

func TestFingerprintMismatch(t *testing.T) {
	enc := encode(t, sample())
	if _, err := Load(bytes.NewReader(enc), "some other corpus"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
	if _, err := Load(bytes.NewReader(enc), sample().Fingerprint); err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
}

// TestUnknownSectionSkipped: a reader must checksum and skip section
// ids it does not know, so future writers can add kinds.
func TestUnknownSectionSkipped(t *testing.T) {
	buf := bytes.NewBuffer(encode(t, sample()))
	// Append a section with an unknown id and a valid frame.
	ww := &writer{w: buf}
	ww.u8(250)
	payload := []byte("opaque future payload")
	ww.u64(uint64(len(payload)))
	ww.write(payload)
	ww.checksum()
	if ww.err != nil {
		t.Fatal(ww.err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
	if len(got.Vocabulary) != len(sample().Vocabulary) {
		t.Fatalf("known sections lost while skipping: %+v", got)
	}
}

// TestV1Rejected: a v1 file fails with ErrVersion in both readers, and
// the message says what the file is and how to convert it.
func TestV1Rejected(t *testing.T) {
	v1 := v1Header(sample().Fingerprint)
	_, loadErr := Load(bytes.NewReader(v1), sample().Fingerprint)
	_, indexErr := ReadPagedIndex(bytes.NewReader(v1), sample().Fingerprint)
	for name, err := range map[string]error{"Load": loadErr, "ReadPagedIndex": indexErr} {
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: err = %v, want ErrVersion", name, err)
		}
		for _, want := range []string{"v1", "-snapshot-save", "SaveArtifactsPaged"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %s", name, err, want)
			}
		}
	}
}

// FuzzLoad feeds arbitrary bytes to the reader: it must never panic and
// must classify every failure as a sentinel error.
func FuzzLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add(encode(f, sample()))
	f.Add(v1Header("fuzz corpus"))
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

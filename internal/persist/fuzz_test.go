package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// corpusBytes decodes a fuzz corpus file holding one []byte value.
func corpusBytes(file []byte) ([]byte, bool) {
	body, ok := strings.CutPrefix(string(file), "go test fuzz v1\n[]byte(")
	if !ok {
		return nil, false
	}
	body, ok = strings.CutSuffix(strings.TrimSpace(body), ")")
	s, err := strconv.Unquote(body)
	return []byte(s), ok && err == nil
}

// FuzzRead feeds Read arbitrary bytes, the restore path's view of a
// snapshot file. It never panics, and it either rejects the input whole
// — a *VersionError or an error wrapping ErrCorrupt, with no snapshot —
// or returns a snapshot that Write encodes back to exactly the input.
// Seed corpus: internal/persist/testdata/fuzz/FuzzRead (no bytes, a
// truncated magic, a v1 file, and a v2 snapshot with truncated,
// bit-flipped and extended copies, all rejected at the format field),
// plus one seed per rejection path of the current format added below:
// the round-trip snapshot, a results-layout mismatch, each huge count,
// a torn tail, a trailing byte and a flipped checksum. Explore beyond
// them with
//
//	go test -run=NONE -fuzz=FuzzRead -fuzztime=10s ./internal/persist/
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		f.Fatal(err)
	}
	sample := buf.Bytes()
	f.Add(sample)
	layout := bytes.Clone(sample)
	binary.LittleEndian.PutUint32(layout[8+3*4:], ResultsLayout+1)
	f.Add(layout)
	for _, data := range hugeCounts(f) {
		f.Add(data)
	}
	f.Add(sample[:len(sample)-3])
	f.Add(append(bytes.Clone(sample), 0))
	flipped := bytes.Clone(sample)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			var ve *VersionError
			if !errors.Is(err, ErrCorrupt) && !errors.As(err, &ve) {
				t.Fatalf("Read rejected %x with %v, neither ErrCorrupt nor a VersionError", data, err)
			}
			if s != nil {
				t.Fatalf("Read returned a snapshot with error %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("Write of a snapshot Read accepted: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("Read accepted %x but Write re-encodes it as %x", data, buf.Bytes())
		}
	})
}

package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
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
// snapshot file, and the same bytes as the body of a file with this
// build's header and a valid checksum, so the body parser is fuzzed
// past the checksum check. Read never panics, and it either rejects an
// input whole — a *VersionError or an error wrapping ErrCorrupt, with
// no snapshot — or returns a snapshot that Write encodes back to
// exactly the input. Seed corpus: internal/persist/testdata/fuzz/FuzzRead
// (no bytes, a truncated magic, a v1 file, and a v2 snapshot with
// truncated, bit-flipped and extended copies, all rejected at the
// format field, and the v4 sample snapshot, accepted), plus one seed per
// rejection path of the current format added below: the round-trip
// snapshot and its body, a results-layout mismatch, each huge count and
// its body, a torn tail, a trailing byte, a flipped checksum, and a body
// that still ends in format 3's warm section, alone and as a v3 file.
// Explore beyond them with
//
//	go test -run=NONE -fuzz=FuzzRead -fuzztime=10s ./internal/persist/
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		f.Fatal(err)
	}
	sample := buf.Bytes()
	f.Add(sample)
	f.Add(sample[headerLen : len(sample)-8])
	layout := bytes.Clone(sample)
	binary.LittleEndian.PutUint32(layout[8+3*4:], ResultsLayout+1)
	f.Add(layout)
	for _, data := range hugeCounts(f) {
		f.Add(data)
		f.Add(data[headerLen:])
	}
	f.Add(sample[:len(sample)-3])
	f.Add(append(bytes.Clone(sample), 0))
	flipped := bytes.Clone(sample)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	// The body followed by the empty warm-seed section format 3 ended
	// in, as a body (framed below with this build's header, it leaves
	// bytes after the body) and under a format-3 header: the file a
	// shard that never seeded across requests wrote.
	warm := binary.LittleEndian.AppendUint32(bytes.Clone(sample[headerLen:len(sample)-8]), 0)
	f.Add(warm)
	v3 := frame(warm)
	binary.LittleEndian.PutUint32(v3[8:], 3)
	h := fnv.New64a()
	h.Write(v3[:len(v3)-8])
	binary.LittleEndian.PutUint64(v3[len(v3)-8:], h.Sum64())
	f.Add(v3)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range [][]byte{data, frame(data)} {
			s, err := Read(bytes.NewReader(data))
			if err != nil {
				var ve *VersionError
				if !errors.Is(err, ErrCorrupt) && !errors.As(err, &ve) {
					t.Fatalf("Read rejected %x with %v, neither ErrCorrupt nor a VersionError", data, err)
				}
				if s != nil {
					t.Fatalf("Read returned a snapshot with error %v", err)
				}
				continue
			}
			var buf bytes.Buffer
			if err := Write(&buf, s); err != nil {
				t.Fatalf("Write of a snapshot Read accepted: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("Read accepted %x but Write re-encodes it as %x", data, buf.Bytes())
			}
		}
	})
}

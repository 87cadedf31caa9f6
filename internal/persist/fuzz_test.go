package persist

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRead feeds Read arbitrary bytes, the restore path's view of a
// snapshot file. It never panics, and it either rejects the input whole
// — a *VersionError or an error wrapping ErrCorrupt, with no snapshot —
// or returns a snapshot that Write encodes back to exactly the input.
// Seed corpus: internal/persist/testdata/fuzz/FuzzRead (the round-trip
// snapshot, truncated and bit-flipped copies). Explore beyond it with
//
//	go test -run=NONE -fuzz=FuzzRead -fuzztime=10s ./internal/persist/
func FuzzRead(f *testing.F) {
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

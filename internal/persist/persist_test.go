package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"magma/internal/encoding"
	"magma/internal/fault"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Problems: []Problem{
			{
				Table:     encoding.TableKey{A: 0x1122334455667788, B: 0x99aabbccddeeff00},
				Objective: 0,
				Memo: []MemoEntry{
					{
						Key:    MemoKey{Mapper: "MAGMA", Budget: 5, Seed: 3},
						Method: "MAGMA", Asked: 5,
						ThroughputGFLOPs: 123.5, MakespanCycles: 4096, EnergyUnits: 7.25, Fitness: 123.5,
						Genome: encoding.Genome{Accel: []int{1, 0, 2}, Prio: []float64{0.5, 0.25, 0.75}},
						Curve:  []CurveRun{{V: 100, N: 2}, {V: 123.5, N: 3}},
					},
					{
						Key:    MemoKey{Mapper: "stdGA", Budget: 2, Seed: -1},
						Method: "stdGA", Asked: 2,
						Fitness: -7.25,
						Genome:  encoding.Genome{Accel: []int{0}, Prio: []float64{0.125}},
						Curve:   []CurveRun{{V: -7.25, N: 2}},
					},
				},
			},
			{
				Table:     encoding.TableKey{A: 42, B: 43},
				Objective: 2,
				Memo:      nil, // empty memos round-trip too
			},
		},
		Warm: []WarmTask{
			{
				Task: 1,
				Seeds: []encoding.Genome{
					{Accel: []int{0, 1, 2}, Prio: []float64{0.25, 0.5, 0.75}},
					{Accel: []int{3, 0}, Prio: []float64{0.125, 0.875}},
				},
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Warm, got.Warm) {
		t.Fatalf("warm round trip:\n got %+v\nwant %+v", got.Warm, want.Warm)
	}
	if len(got.Problems) != len(want.Problems) {
		t.Fatalf("got %d problems, want %d", len(got.Problems), len(want.Problems))
	}
	for i := range want.Problems {
		if got.Problems[i].Table != want.Problems[i].Table ||
			got.Problems[i].Objective != want.Problems[i].Objective ||
			!reflect.DeepEqual(append([]MemoEntry{}, got.Problems[i].Memo...), append([]MemoEntry{}, want.Problems[i].Memo...)) {
			t.Fatalf("problem %d round trip:\n got %+v\nwant %+v", i, got.Problems[i], want.Problems[i])
		}
	}
}

// TestTruncatedRejected chops the serialized snapshot at a sweep of
// offsets; every prefix must be rejected (ErrCorrupt), never parsed.
func TestTruncatedRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(full))
		} else if !errors.Is(err, ErrCorrupt) {
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("truncation at %d: error %v neither ErrCorrupt nor VersionError", cut, err)
			}
		}
	}
}

// TestBitFlipRejected flips single bytes across the body; the checksum
// (or a sanity bound) must reject every mutation that Read does not
// fail structurally on first.
func TestBitFlipRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for pos := 0; pos < len(full); pos += 3 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xa5
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte flip at %d of %d accepted", pos, len(full))
		}
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The four version fields sit right after the 8-byte magic.
	for i, field := range []string{"format", "rng layout", "sim kernel", "results layout"} {
		mut := append([]byte(nil), full...)
		mut[8+4*i] += 1 // bump the little-endian low byte
		_, err := Read(bytes.NewReader(mut))
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("%s bump: error %v, want *VersionError", field, err)
		}
		if ve.Field != field {
			t.Fatalf("bumped %s but VersionError names %q", field, ve.Field)
		}
	}
}

// TestV1SnapshotRejected pins the simulator-kernel-v2 numeric break: a
// snapshot written under FormatVersion 1 (three version fields, kernel
// v1 fitness bits in the cache entries) must be rejected whole with a
// *VersionError naming the format field, so a restored solver can never
// serve v1 cached fitness next to v2 simulations. The format field is
// the first one Read checks, so a v1 header prefix fails before the
// differing v1 body layout could ever be misparsed.
func TestV1SnapshotRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(v1[8:], 1) // what every v1-era file declares
	_, err := Read(bytes.NewReader(v1))
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("v1 snapshot: error %v, want *VersionError", err)
	}
	if ve.Field != "format" || ve.Got != 1 || ve.Want != FormatVersion {
		t.Fatalf("v1 snapshot rejected with %+v, want format 1 vs %d", ve, FormatVersion)
	}
}

// TestV2SnapshotRejected: a FormatVersion 2 file holds fingerprint→
// fitness entries, which this format replaced with memo entries; it is
// rejected whole with a *VersionError naming the format field.
func TestV2SnapshotRejected(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRead", "sample"))
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := corpusBytes(data)
	if !ok {
		t.Fatalf("sample corpus entry is not one []byte: %q", data)
	}
	_, err = Read(bytes.NewReader(raw))
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Field != "format" || ve.Got != 2 {
		t.Fatalf("v2 snapshot: error %v, want a format VersionError for version 2", err)
	}
}

// TestCurveMustCoverAsked: a memo entry's curve runs must be nonempty
// and add up to its Asked samples, at most its budget, or thawing it
// would build a curve of the wrong length.
func TestCurveMustCoverAsked(t *testing.T) {
	for name, edit := range map[string]func(e *MemoEntry){
		"short":       func(e *MemoEntry) { e.Curve[1].N-- },
		"long":        func(e *MemoEntry) { e.Curve[0].N++ },
		"empty run":   func(e *MemoEntry) { e.Curve = append(e.Curve, CurveRun{V: 1}) },
		"over budget": func(e *MemoEntry) { e.Key.Budget = 4 },
		"no runs":     func(e *MemoEntry) { e.Curve = nil },
	} {
		s := sampleSnapshot()
		edit(&s.Problems[0].Memo[0])
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
}

// hugeCounts returns, per count Read bounds by a size, a file that
// declares the largest such count Read accepts and ends right after it.
func hugeCounts(t testing.TB) map[string][]byte {
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	header := buf.Bytes()[:8+4*4]
	le := binary.LittleEndian
	problem := le.AppendUint32(append([]byte(nil), header...), 1)
	problem = append(problem, make([]byte, 8+8+4)...) // table key, objective
	memo := le.AppendUint32(append([]byte(nil), problem...), 1)
	memo = le.AppendUint32(memo, 0)                           // mapper ""
	memo = le.AppendUint64(le.AppendUint64(memo, 8), 0)       // budget, seed
	memo = le.AppendUint32(memo, 0)                           // method ""
	memo = le.AppendUint64(memo, 8)                           // asked
	memo = append(memo, make([]byte, 4*8)...)                 // four scalars
	curve := le.AppendUint32(append([]byte(nil), memo...), 0) // an empty genome
	genes := le.AppendUint32(append([]byte(nil), header...), 0)
	genes = le.AppendUint32(le.AppendUint32(genes, 1), 0) // one warm task
	return map[string][]byte{
		"memo entries": le.AppendUint32(problem, maxMemoEntries),
		"memo genes":   le.AppendUint32(memo, maxGenesPerSeed),
		"curve runs":   le.AppendUint32(curve, maxCurveRuns),
		"warm genes":   le.AppendUint32(le.AppendUint32(genes, 1), maxGenesPerSeed),
	}
}

// TestHugeCountAllocatesLittle declares the largest memo entry, curve
// run and gene counts Read accepts in a file that ends right after
// them: Read must fail as truncated without first allocating the
// declared slices (up to 1 GiB of curve runs).
func TestHugeCountAllocatesLittle(t *testing.T) {
	for name, data := range hugeCounts(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v, want ErrCorrupt", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: Read allocated %d bytes for a %d-byte file", name, n, len(data))
		}
	}
}

func TestWriteAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solver.snap")
	want := sampleSnapshot()
	if err := WriteAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second snapshot: rename must replace atomically.
	want.Problems = want.Problems[:1]
	if err := WriteAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Problems) != 1 {
		t.Fatalf("got %d problems after overwrite, want 1", len(got.Problems))
	}
	// No temp litter.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic writes, want 1", len(entries))
	}
}

func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "nope.snap"))
	if !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v, want os.IsNotExist", err)
	}
}

// TestInjectedWriteError verifies the fault.PersistWrite point aborts
// the snapshot before anything lands on disk.
func TestInjectedWriteError(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	boom := errors.New("disk on fire")
	fault.Enable(fault.PersistWrite, func() error { return boom })
	dir := t.TempDir()
	path := filepath.Join(dir, "solver.snap")
	if err := WriteAtomic(path, sampleSnapshot()); !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic under injected write error = %v, want %v", err, boom)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("injected write error left %d files behind", len(entries))
	}
}

// TestInjectedTornWrite verifies the fault.PersistTear point leaves a
// truncated snapshot at the destination — and that Read rejects it.
func TestInjectedTornWrite(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	boom := errors.New("power cut")
	fault.Enable(fault.PersistTear, func() error { return boom })
	path := filepath.Join(t.TempDir(), "solver.snap")
	if err := WriteAtomic(path, sampleSnapshot()); !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic under injected tear = %v, want %v", err, boom)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("torn snapshot missing from destination: %v", err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("torn snapshot accepted by ReadFile")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn snapshot error = %v, want ErrCorrupt", err)
	}
}

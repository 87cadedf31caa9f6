// Package persist is the durable snapshot format behind the crash-safe
// Solver: a versioned, checksummed binary serialization of the state a
// long-lived engine accumulates — each problem's memo of finished
// searches, keyed by encoding.TableKey and objective — so a restarted
// server answers its first exact repeat from the memo instead of
// searching again.
//
// The format is deliberately conservative about what it trusts:
//
//   - the header carries the format version, the RNG layout version,
//     the simulator kernel version and the results layout version
//     (ResultsLayout). A snapshot written under any other version is
//     *rejected* (VersionError), never reinterpreted: a memo entry is a
//     search's result, and a build whose searches return different
//     results must not answer with the old ones;
//   - the body ends in an FNV-64a checksum over everything before it.
//     Read checks it before it parses the body, so torn or truncated
//     files (a crash mid-write, a corrupted disk) are rejected and a
//     restoring server boots cold instead of loading garbage;
//   - WriteAtomic goes write-to-temp-then-rename (with fsync), so a
//     crash during snapshotting leaves the previous snapshot intact —
//     the destination path never holds a half-written file.
//
// Only results that are a pure function of their key are persisted: a
// search is a pure function of its problem, mapper, budget and seed,
// so a restored memo entry is bit-identical to the search it stands
// for. Nothing about in-flight runs or scratch is (or needs to be)
// saved.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"magma/internal/encoding"
	"magma/internal/fault"
	"magma/internal/m3e"
	"magma/internal/rng"
	"magma/internal/sim"
)

// FormatVersion is the snapshot container version. Bump on any change
// to the byte layout below. Version 2 added the simulator kernel
// version to the header; version 3 replaced each problem's fitness
// entries with its memo of finished searches and the fingerprint
// layout with ResultsLayout; version 4 dropped the warm-start seed
// section that followed the problems. Older files are rejected whole
// at the format check.
const FormatVersion = 4

// ResultsLayout versions the results every built-in mapper returns for
// a given problem, mapper, budget and seed. Bump it with any change
// that moves one (TestResultDigests fails a declared break that leaves
// it in place), so a snapshot's memo never answers for code whose
// searches now return something else.
const ResultsLayout = 1

// magic identifies a solver snapshot file.
var magic = [8]byte{'M', 'A', 'G', 'M', 'A', 'S', 'N', 'P'}

// Sanity bounds on deserialized counts. Read parses a body only once
// its checksum holds, and a count whose items cannot fit in the bytes
// left after it fails too (cursor.count), so no count allocates more
// than the input holds.
const (
	maxProblems      = 1 << 20
	maxMemoEntries   = 1 << 16
	maxNameLen       = 1 << 8
	maxSamples       = 1 << 31
	maxCurveRuns     = 1 << 26
	maxGenes         = 1 << 20
	maxObjectiveWire = 1 << 8
)

// ErrCorrupt tags snapshots rejected for structural reasons: bad magic,
// failed checksum, truncation, or implausible length fields. Callers
// treat it (and VersionError) as "boot cold", never as fatal.
var ErrCorrupt = errors.New("persist: corrupt snapshot")

// VersionError reports a snapshot written under an incompatible format
// or layout version. It is a rejection, not corruption: the file is
// intact but its contents cannot be safely interpreted.
type VersionError struct {
	Field     string // "format" | "rng layout" | "sim kernel" | "results layout"
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("persist: snapshot %s version %d, want %d (stale snapshots are rejected, not reinterpreted)",
		e.Field, e.Got, e.Want)
}

// MemoKey names one finished search on a problem: with the problem's
// content and objective it fixes the result, because a search is a
// pure function of (problem, mapper, budget, seed). Mapper is the
// resolved registry name and Budget the resolved sampling budget.
type MemoKey struct {
	Mapper string
	Budget int
	Seed   int64
}

// MemoEntry is one finished search as a problem's memo keeps it: the
// schedule's genome and evaluation without its decoded mapping (the
// genome decodes to it again), and the convergence curve in the runs
// the search recorded. Method is the name the mapper reported (the
// Schedule's Mapper), Asked the genomes the search asked.
type MemoEntry struct {
	Key    MemoKey
	Method string
	Asked  int

	ThroughputGFLOPs float64
	MakespanCycles   float64
	EnergyUnits      float64
	Fitness          float64

	Genome encoding.Genome
	Curve  m3e.Curve
}

// Problem is one problem's durable memo: the stable content identity
// it is keyed by (recomputable from any future request with the same
// group/platform content), its objective, and its finished searches,
// oldest first.
type Problem struct {
	Table     encoding.TableKey
	Objective uint8
	Memo      []MemoEntry
}

// Snapshot is the full durable state of a Solver.
type Snapshot struct {
	Problems []Problem
}

// versions lists the header's version fields in file order, with the
// value this build writes and accepts.
var versions = [...]struct {
	field string
	want  uint32
}{
	{"format", FormatVersion},
	{"rng layout", rng.Layout},
	{"sim kernel", sim.KernelVersion},
	{"results layout", ResultsLayout},
}

// headerLen is the magic plus the four version fields.
const headerLen = len(magic) + 4*len(versions)

var le = binary.LittleEndian

// Write serializes the snapshot into one buffer — header (magic and the
// four version fields), body, and an FNV-64a checksum of everything
// before it — and writes that buffer in one call.
func Write(w io.Writer, s *Snapshot) error {
	b := append([]byte(nil), magic[:]...)
	for _, v := range versions {
		b = le.AppendUint32(b, v.want)
	}
	b = le.AppendUint32(b, uint32(len(s.Problems)))
	for _, p := range s.Problems {
		b = le.AppendUint64(b, p.Table.A)
		b = le.AppendUint64(b, p.Table.B)
		b = le.AppendUint32(b, uint32(p.Objective))
		b = le.AppendUint32(b, uint32(len(p.Memo)))
		for _, e := range p.Memo {
			b = appendString(b, e.Key.Mapper)
			b = le.AppendUint64(b, uint64(e.Key.Budget))
			b = le.AppendUint64(b, uint64(e.Key.Seed))
			b = appendString(b, e.Method)
			b = le.AppendUint64(b, uint64(e.Asked))
			for _, v := range []float64{e.ThroughputGFLOPs, e.MakespanCycles, e.EnergyUnits, e.Fitness} {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
			var err error
			if b, err = appendGenome(b, e.Genome); err != nil {
				return err
			}
			b = le.AppendUint32(b, uint32(len(e.Curve)))
			for _, r := range e.Curve {
				b = le.AppendUint64(b, math.Float64bits(r.V))
				b = le.AppendUint64(b, uint64(r.N))
			}
		}
	}
	h := fnv.New64a()
	h.Write(b)
	if _, err := w.Write(le.AppendUint64(b, h.Sum64())); err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	return nil
}

func appendString(b []byte, v string) []byte {
	return append(le.AppendUint32(b, uint32(len(v))), v...)
}

// appendGenome appends the gene count, the accelerator genes and the
// priority genes.
func appendGenome(b []byte, g encoding.Genome) ([]byte, error) {
	if len(g.Accel) != len(g.Prio) {
		return b, fmt.Errorf("persist: genome with %d accel but %d prio genes", len(g.Accel), len(g.Prio))
	}
	b = le.AppendUint32(b, uint32(len(g.Accel)))
	for _, a := range g.Accel {
		b = le.AppendUint32(b, uint32(a))
	}
	for _, p := range g.Prio {
		b = le.AppendUint64(b, math.Float64bits(p))
	}
	return b, nil
}

// Read deserializes and validates a snapshot, which must span the whole
// input. Any structural problem — wrong magic, truncation, checksum
// failure, implausible counts, a curve that does not add up to its
// search's samples, trailing bytes — returns an error wrapping
// ErrCorrupt; an incompatible version field returns a *VersionError.
// Either way the caller should boot cold.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading (%v)", ErrCorrupt, err)
	}
	// The magic and the version fields first, then the checksum over
	// every byte before the last 8, and only then the body.
	c := &cursor{b: data}
	if m := c.take(len(magic)); c.err == nil && [8]byte(m) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	for _, v := range versions {
		if got := c.u32(); c.err == nil && got != v.want {
			return nil, &VersionError{Field: v.field, Got: got, Want: v.want}
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	end := len(data) - 8
	if end < headerLen {
		return nil, fmt.Errorf("%w: truncated checksum", ErrCorrupt)
	}
	h := fnv.New64a()
	h.Write(data[:end])
	if got, want := le.Uint64(data[end:]), h.Sum64(); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (file %#x, computed %#x)", ErrCorrupt, got, want)
	}
	c.b = data[headerLen:end]
	s := c.snapshot()
	if c.err == nil && len(c.b) > 0 {
		c.fail("%d bytes after the body", len(c.b))
	}
	if c.err != nil {
		return nil, c.err
	}
	return s, nil
}

// cursor reads little-endian fields off the front of b. The first
// failure is kept in err; after it every read returns zero values and
// every count 0, and each loop over a count stops at the first item that
// fails.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	c.b = nil
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.b) {
		c.fail("truncated")
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// count reads a u32 count of items that take at least size bytes each
// (the sum of their fixed fields), rejecting one above limit or one
// whose items cannot fit in the bytes left, so no count allocates more
// than the input holds. Size 0 reads a plain value bounded by limit.
func (c *cursor) count(what string, limit uint32, size int) int {
	n := c.u32()
	if c.err != nil {
		return 0
	}
	if n > limit || int(n)*size > len(c.b) {
		c.fail("%d %s with %d bytes left", n, what, len(c.b))
		return 0
	}
	return int(n)
}

// samples reads a u64 sample count, rejecting one above maxSamples.
func (c *cursor) samples(what string) int {
	n := c.u64()
	if n > maxSamples {
		c.fail("%s of %d samples", what, n)
		return 0
	}
	return int(n)
}

func (c *cursor) str() string {
	return string(c.take(c.count("name bytes", maxNameLen, 1)))
}

// genome reads what appendGenome wrote. The gene count is bounded by the
// bytes left, so both gene loops read only bytes that are there.
func (c *cursor) genome() encoding.Genome {
	n := c.count("genes", maxGenes, 4+8)
	g := encoding.Genome{Accel: make([]int, n), Prio: make([]float64, n)}
	for i := range g.Accel {
		g.Accel[i] = int(c.u32())
	}
	for i := range g.Prio {
		g.Prio[i] = math.Float64frombits(c.u64())
	}
	return g
}

// snapshot parses a checksum-verified body. Every loop stops at the
// first item that fails.
func (c *cursor) snapshot() *Snapshot {
	s := &Snapshot{}
	for n := c.count("problems", maxProblems, 8+8+4+4); n > 0 && c.err == nil; n-- {
		p := Problem{Table: encoding.TableKey{A: c.u64(), B: c.u64()}}
		p.Objective = uint8(c.count("objective", maxObjectiveWire-1, 0))
		nMemo := c.count("memo entries", maxMemoEntries, 4+8+8+4+8+4*8+4+4)
		p.Memo = make([]MemoEntry, 0, nMemo)
		for ; nMemo > 0 && c.err == nil; nMemo-- {
			p.Memo = append(p.Memo, c.memoEntry())
		}
		s.Problems = append(s.Problems, p)
	}
	return s
}

// memoEntry reads one MemoEntry, whose curve runs must each be nonempty
// and add up to its Asked samples, at most its Budget.
func (c *cursor) memoEntry() MemoEntry {
	var e MemoEntry
	e.Key.Mapper = c.str()
	e.Key.Budget = c.samples("budget")
	e.Key.Seed = int64(c.u64())
	e.Method = c.str()
	e.Asked = c.samples("asked")
	if e.Asked > e.Key.Budget {
		c.fail("%d asked over a budget of %d", e.Asked, e.Key.Budget)
	}
	for _, v := range []*float64{&e.ThroughputGFLOPs, &e.MakespanCycles, &e.EnergyUnits, &e.Fitness} {
		*v = math.Float64frombits(c.u64())
	}
	e.Genome = c.genome()
	nRuns := c.count("curve runs", maxCurveRuns, 8+8)
	e.Curve = make(m3e.Curve, nRuns)
	left := e.Asked
	for i := range e.Curve {
		r := &e.Curve[i]
		r.V = math.Float64frombits(c.u64())
		r.N = c.samples("curve run")
		if r.N == 0 || r.N > left {
			c.fail("curve run of %d samples with %d of %d left", r.N, left, e.Asked)
			return e
		}
		left -= r.N
	}
	if left != 0 {
		c.fail("curve runs cover %d of %d samples", e.Asked-left, e.Asked)
	}
	return e
}

// WriteAtomic durably writes the snapshot to path: write to a temp file
// in the same directory, fsync, then rename over the destination — so
// a crash at any point leaves either the previous snapshot or the new
// one at path, never a torn file. (The fault.PersistTear test hook is
// the deliberate exception: it renames a truncated temp into place to
// give the restore path a torn file to reject.)
func WriteAtomic(path string, s *Snapshot) error {
	if err := fault.Hit(fault.PersistWrite); err != nil {
		return fmt.Errorf("persist: writing %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("persist: temp for %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Write(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if tearErr := fault.Hit(fault.PersistTear); tearErr != nil {
		// Injected torn write: chop the file and rename it into place so
		// the next restore sees exactly what a non-atomic writer would
		// have left behind.
		if info, err := tmp.Stat(); err == nil {
			_ = tmp.Truncate(info.Size() / 2)
		}
		tmp.Close()
		_ = os.Rename(tmp.Name(), path)
		return fmt.Errorf("persist: writing %s: %w", path, tearErr)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: rename %s: %w", path, err)
	}
	return nil
}

// ReadFile reads and validates a snapshot file. A missing file is
// returned as-is (os.IsNotExist distinguishes "cold start" from
// "rejected snapshot").
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

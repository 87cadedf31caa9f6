// Package persist is the durable snapshot format behind the crash-safe
// Solver: a versioned, checksummed binary serialization of the warm
// state a long-lived engine accumulates — each problem's memo of
// finished searches, keyed by encoding.TableKey and objective, and the
// warm-start seed genomes — so a restarted server answers its first
// exact repeat from the memo instead of searching again.
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
//     Torn or truncated files (a crash mid-write, a corrupted disk)
//     fail the checksum or hit unexpected EOF and are rejected, so a
//     restoring server boots cold instead of loading garbage;
//   - WriteAtomic goes write-to-temp-then-rename (with fsync), so a
//     crash during snapshotting leaves the previous snapshot intact —
//     the destination path never holds a half-written file.
//
// Only results that are a pure function of their key are persisted: a
// search is a pure function of its problem, mapper, budget and seed,
// so a restored memo entry is bit-identical to the search it stands
// for. Nothing about in-flight runs, pools or scratch is (or needs to
// be) saved.
package persist

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"magma/internal/encoding"
	"magma/internal/fault"
	"magma/internal/rng"
	"magma/internal/sim"
)

// FormatVersion is the snapshot container version. Bump on any change
// to the byte layout below. Version 2 added the simulator kernel
// version to the header; version 3 replaced each problem's fitness
// entries with its memo of finished searches and the fingerprint
// layout with ResultsLayout. Older files are rejected whole at the
// format check.
const FormatVersion = 3

// ResultsLayout versions the results every built-in mapper returns for
// a given problem, mapper, budget and seed. Bump it with any change
// that moves one (TestResultDigests fails a declared break that leaves
// it in place), so a snapshot's memo never answers for code whose
// searches now return something else.
const ResultsLayout = 1

// magic identifies a solver snapshot file.
var magic = [8]byte{'M', 'A', 'G', 'M', 'A', 'S', 'N', 'P'}

// Sanity bounds on deserialized counts: a corrupted length field must
// fail fast instead of allocating gigabytes before the checksum check
// has a chance to reject the file. Read also never preallocates more
// than preallocCap elements on a count's word alone: past that a slice
// grows only as its elements are actually read, so a short file with a
// huge count fails at its end instead of allocating the whole count.
const (
	preallocCap      = 1 << 12
	maxProblems      = 1 << 20
	maxMemoEntries   = 1 << 16
	maxNameLen       = 1 << 8
	maxSamples       = 1 << 31
	maxCurveRuns     = 1 << 26
	maxWarmTasks     = 1 << 16
	maxSeedsPerTask  = 1 << 16
	maxGenesPerSeed  = 1 << 20
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

// CurveRun is N consecutive best-so-far curve samples of value V. A
// best-so-far curve steps only when the search improves, so a curve of
// thousands of samples keeps a few dozen runs.
type CurveRun struct {
	V float64
	N int
}

// MemoEntry is one finished search as a problem's memo keeps it: the
// schedule's genome and evaluation without its decoded mapping (the
// genome decodes to it again), and the convergence curve run-length
// encoded. Method is the name the mapper reported (the Schedule's
// Mapper), Asked the genomes the search asked.
type MemoEntry struct {
	Key    MemoKey
	Method string
	Asked  int

	ThroughputGFLOPs float64
	MakespanCycles   float64
	EnergyUnits      float64
	Fitness          float64

	Genome encoding.Genome
	Curve  []CurveRun
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

// WarmTask is one task type's warm-start seeds, oldest first.
type WarmTask struct {
	Task  uint8
	Seeds []encoding.Genome
}

// Snapshot is the full durable warm state of a Solver.
type Snapshot struct {
	Problems []Problem
	Warm     []WarmTask
}

// hashWriter writes through an FNV-64a accumulator so the trailing
// checksum covers every byte of header and body.
type hashWriter struct {
	w   io.Writer
	h   hash.Hash64
	buf [8]byte
	err error
}

func newHashWriter(w io.Writer) *hashWriter {
	return &hashWriter{w: w, h: fnv.New64a()}
}

func (x *hashWriter) bytes(b []byte) {
	if x.err != nil {
		return
	}
	if _, err := x.w.Write(b); err != nil {
		x.err = err
		return
	}
	x.h.Write(b)
}

func (x *hashWriter) u32(v uint32) {
	x.buf[0] = byte(v)
	x.buf[1] = byte(v >> 8)
	x.buf[2] = byte(v >> 16)
	x.buf[3] = byte(v >> 24)
	x.bytes(x.buf[:4])
}

func (x *hashWriter) u64(v uint64) {
	for i := 0; i < 8; i++ {
		x.buf[i] = byte(v >> (8 * i))
	}
	x.bytes(x.buf[:8])
}

func (x *hashWriter) str(v string) {
	x.u32(uint32(len(v)))
	x.bytes([]byte(v))
}

// genome writes the gene count, the accelerator genes and the priority
// genes.
func (x *hashWriter) genome(g encoding.Genome) error {
	if len(g.Accel) != len(g.Prio) {
		return fmt.Errorf("persist: genome with %d accel but %d prio genes", len(g.Accel), len(g.Prio))
	}
	x.u32(uint32(len(g.Accel)))
	for _, a := range g.Accel {
		x.u32(uint32(a))
	}
	for _, p := range g.Prio {
		x.u64(math.Float64bits(p))
	}
	return nil
}

// sumThenWrite appends the checksum itself (not hashed).
func (x *hashWriter) sumThenWrite() {
	if x.err != nil {
		return
	}
	sum := x.h.Sum64()
	for i := 0; i < 8; i++ {
		x.buf[i] = byte(sum >> (8 * i))
	}
	_, x.err = x.w.Write(x.buf[:8])
}

// hashReader mirrors hashWriter: every read is hashed except the final
// raw checksum read.
type hashReader struct {
	r   io.Reader
	h   hash.Hash64
	buf [8]byte
}

func newHashReader(r io.Reader) *hashReader {
	return &hashReader{r: r, h: fnv.New64a()}
}

func (x *hashReader) bytes(n int) ([]byte, error) {
	b := x.buf[:n]
	if _, err := io.ReadFull(x.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%w: truncated (%v)", ErrCorrupt, err)
	}
	x.h.Write(b)
	return b, nil
}

func (x *hashReader) u32() (uint32, error) {
	b, err := x.bytes(4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

func (x *hashReader) u64() (uint64, error) {
	b, err := x.bytes(8)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}

// count reads a u32 count, rejecting one above limit.
func (x *hashReader) count(what string, limit uint32) (uint32, error) {
	n, err := x.u32()
	if err != nil {
		return 0, err
	}
	if n > limit {
		return 0, fmt.Errorf("%w: %d %s", ErrCorrupt, n, what)
	}
	return n, nil
}

// samples reads a u64 sample count, rejecting one above maxSamples.
func (x *hashReader) samples(what string) (int, error) {
	n, err := x.u64()
	if err != nil {
		return 0, err
	}
	if n > maxSamples {
		return 0, fmt.Errorf("%w: %s of %d samples", ErrCorrupt, what, n)
	}
	return int(n), nil
}

func (x *hashReader) str() (string, error) {
	n, err := x.count("name bytes", maxNameLen)
	if err != nil {
		return "", err
	}
	b := make([]byte, 0, n)
	for range n {
		c, err := x.bytes(1)
		if err != nil {
			return "", err
		}
		b = append(b, c[0])
	}
	return string(b), nil
}

// genome reads what hashWriter.genome wrote.
func (x *hashReader) genome() (encoding.Genome, error) {
	nGenes, err := x.count("genes", maxGenesPerSeed)
	if err != nil {
		return encoding.Genome{}, err
	}
	n := min(nGenes, preallocCap)
	g := encoding.Genome{Accel: make([]int, 0, n), Prio: make([]float64, 0, n)}
	for range nGenes {
		a, err := x.u32()
		if err != nil {
			return encoding.Genome{}, err
		}
		g.Accel = append(g.Accel, int(a))
	}
	for range nGenes {
		bits, err := x.u64()
		if err != nil {
			return encoding.Genome{}, err
		}
		g.Prio = append(g.Prio, math.Float64frombits(bits))
	}
	return g, nil
}

// checksum reads the trailing (unhashed) checksum, which must end the
// input: bytes after it are covered by no checksum, so a snapshot
// followed by anything is rejected.
func (x *hashReader) checksum() (uint64, error) {
	sum := x.h.Sum64() // capture before the raw read
	b := x.buf[:8]
	if _, err := io.ReadFull(x.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("%w: truncated checksum (%v)", ErrCorrupt, err)
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	if v != sum {
		return 0, fmt.Errorf("%w: checksum mismatch (file %#x, computed %#x)", ErrCorrupt, v, sum)
	}
	switch _, err := io.ReadFull(x.r, b[:1]); err {
	case io.EOF:
		return v, nil
	case nil:
		return 0, fmt.Errorf("%w: trailing data after the checksum", ErrCorrupt)
	default:
		return 0, fmt.Errorf("%w: reading past the checksum (%v)", ErrCorrupt, err)
	}
}

// Write serializes the snapshot: header (magic + four version fields),
// body, trailing checksum.
func Write(w io.Writer, s *Snapshot) error {
	x := newHashWriter(w)
	x.bytes(magic[:])
	x.u32(FormatVersion)
	x.u32(rng.Layout)
	x.u32(sim.KernelVersion)
	x.u32(ResultsLayout)

	x.u32(uint32(len(s.Problems)))
	for _, p := range s.Problems {
		x.u64(p.Table.A)
		x.u64(p.Table.B)
		x.u32(uint32(p.Objective))
		x.u32(uint32(len(p.Memo)))
		for _, e := range p.Memo {
			x.str(e.Key.Mapper)
			x.u64(uint64(e.Key.Budget))
			x.u64(uint64(e.Key.Seed))
			x.str(e.Method)
			x.u64(uint64(e.Asked))
			for _, v := range []float64{e.ThroughputGFLOPs, e.MakespanCycles, e.EnergyUnits, e.Fitness} {
				x.u64(math.Float64bits(v))
			}
			if err := x.genome(e.Genome); err != nil {
				return err
			}
			x.u32(uint32(len(e.Curve)))
			for _, r := range e.Curve {
				x.u64(math.Float64bits(r.V))
				x.u64(uint64(r.N))
			}
		}
	}
	x.u32(uint32(len(s.Warm)))
	for _, wt := range s.Warm {
		x.u32(uint32(wt.Task))
		x.u32(uint32(len(wt.Seeds)))
		for _, g := range wt.Seeds {
			if err := x.genome(g); err != nil {
				return err
			}
		}
	}
	x.sumThenWrite()
	if x.err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", x.err)
	}
	return nil
}

// Read deserializes and validates a snapshot, which must span the whole
// input. Any structural problem — wrong magic, truncation, checksum
// failure, implausible counts, a curve that does not add up to its
// search's samples, trailing bytes — returns an error wrapping
// ErrCorrupt; an incompatible version field returns a *VersionError.
// Either way the caller should boot cold.
func Read(r io.Reader) (*Snapshot, error) {
	x := newHashReader(r)
	m, err := x.bytes(8)
	if err != nil {
		return nil, err
	}
	if [8]byte(m) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	for _, v := range []struct {
		field string
		want  uint32
	}{
		{"format", FormatVersion},
		{"rng layout", rng.Layout},
		{"sim kernel", sim.KernelVersion},
		{"results layout", ResultsLayout},
	} {
		got, err := x.u32()
		if err != nil {
			return nil, err
		}
		if got != v.want {
			return nil, &VersionError{Field: v.field, Got: got, Want: v.want}
		}
	}

	nProblems, err := x.count("problems", maxProblems)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{}
	for range nProblems {
		var p Problem
		if p.Table.A, err = x.u64(); err != nil {
			return nil, err
		}
		if p.Table.B, err = x.u64(); err != nil {
			return nil, err
		}
		obj, err := x.count("objective", maxObjectiveWire-1)
		if err != nil {
			return nil, err
		}
		p.Objective = uint8(obj)
		nMemo, err := x.count("memo entries", maxMemoEntries)
		if err != nil {
			return nil, err
		}
		p.Memo = make([]MemoEntry, 0, min(nMemo, preallocCap))
		for range nMemo {
			e, err := x.memoEntry()
			if err != nil {
				return nil, err
			}
			p.Memo = append(p.Memo, e)
		}
		s.Problems = append(s.Problems, p)
	}

	nWarm, err := x.count("warm tasks", maxWarmTasks)
	if err != nil {
		return nil, err
	}
	for range nWarm {
		var wt WarmTask
		task, err := x.count("task", maxObjectiveWire-1)
		if err != nil {
			return nil, err
		}
		wt.Task = uint8(task)
		nSeeds, err := x.count("seeds", maxSeedsPerTask)
		if err != nil {
			return nil, err
		}
		for range nSeeds {
			g, err := x.genome()
			if err != nil {
				return nil, err
			}
			wt.Seeds = append(wt.Seeds, g)
		}
		s.Warm = append(s.Warm, wt)
	}
	if _, err := x.checksum(); err != nil {
		return nil, err
	}
	return s, nil
}

// memoEntry reads one MemoEntry, whose curve runs must each be nonempty
// and add up to its Asked samples, at most its Budget.
func (x *hashReader) memoEntry() (MemoEntry, error) {
	var e MemoEntry
	var err error
	if e.Key.Mapper, err = x.str(); err != nil {
		return e, err
	}
	budget, err := x.samples("budget")
	if err != nil {
		return e, err
	}
	e.Key.Budget = budget
	seed, err := x.u64()
	if err != nil {
		return e, err
	}
	e.Key.Seed = int64(seed)
	if e.Method, err = x.str(); err != nil {
		return e, err
	}
	if e.Asked, err = x.samples("asked"); err != nil {
		return e, err
	}
	if e.Asked > e.Key.Budget {
		return e, fmt.Errorf("%w: %d asked over a budget of %d", ErrCorrupt, e.Asked, e.Key.Budget)
	}
	for _, v := range []*float64{&e.ThroughputGFLOPs, &e.MakespanCycles, &e.EnergyUnits, &e.Fitness} {
		bits, err := x.u64()
		if err != nil {
			return e, err
		}
		*v = math.Float64frombits(bits)
	}
	if e.Genome, err = x.genome(); err != nil {
		return e, err
	}
	nRuns, err := x.count("curve runs", maxCurveRuns)
	if err != nil {
		return e, err
	}
	e.Curve = make([]CurveRun, 0, min(nRuns, preallocCap))
	left := e.Asked
	for range nRuns {
		bits, err := x.u64()
		if err != nil {
			return e, err
		}
		n, err := x.samples("curve run")
		if err != nil {
			return e, err
		}
		if n == 0 || n > left {
			return e, fmt.Errorf("%w: curve run of %d samples with %d of %d left", ErrCorrupt, n, left, e.Asked)
		}
		left -= n
		e.Curve = append(e.Curve, CurveRun{V: math.Float64frombits(bits), N: n})
	}
	if left != 0 {
		return e, fmt.Errorf("%w: curve runs cover %d of %d samples", ErrCorrupt, e.Asked-left, e.Asked)
	}
	return e, nil
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

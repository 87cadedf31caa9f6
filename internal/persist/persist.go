// Package persist is the durable snapshot format behind the crash-safe
// Solver: a versioned, checksummed binary serialization of the warm
// state a long-lived engine accumulates — per-problem fingerprint→
// fitness entries keyed by encoding.TableKey, and the warm-start seed
// genomes — so a restarted server answers the repeat mix with a nonzero
// cross-request hit rate from generation one.
//
// The format is deliberately conservative about what it trusts:
//
//   - the header carries the format version, the RNG layout version,
//     the fingerprint layout version and the simulator kernel version.
//     A snapshot written under an older layout is *rejected*
//     (VersionError), never reinterpreted: a fingerprint hashed under a
//     different layout would silently miss — or worse, collide with —
//     current hashes, and a fitness memo computed by a different
//     simulator kernel differs in low-order bits from a recomputed one,
//     breaking the restored-equals-recomputed invariant;
//   - the body ends in an FNV-64a checksum over everything before it.
//     Torn or truncated files (a crash mid-write, a corrupted disk)
//     fail the checksum or hit unexpected EOF and are rejected, so a
//     restoring server boots cold instead of loading garbage;
//   - WriteAtomic goes write-to-temp-then-rename (with fsync), so a
//     crash during snapshotting leaves the previous snapshot intact —
//     the destination path never holds a half-written file.
//
// Only pure-function memo state is persisted. Fitness is a pure
// function of the decoded schedule, so restored entries are
// bit-identical to recomputed ones; nothing about in-flight runs, pools
// or scratch is (or needs to be) saved.
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
// version to the header when kernel v2 changed the numeric behaviour
// of fitness — v1 snapshots are rejected whole at the format check,
// exactly like the RNG layout v2 break before it.
const FormatVersion = 2

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
	maxEntries       = 1 << 26
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
	Field     string // "format" | "rng layout" | "fingerprint layout" | "sim kernel"
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("persist: snapshot %s version %d, want %d (stale snapshots are rejected, not reinterpreted)",
		e.Field, e.Got, e.Want)
}

// Entry is one memoized fitness: a schedule fingerprint and its score.
type Entry struct {
	FP      encoding.Fingerprint
	Fitness float64
}

// Problem is one problem's durable cache state: the stable content
// identity it is keyed by (recomputable from any future request with
// the same group/platform content) and its fingerprint→fitness entries
// in FIFO insertion order, oldest first — so a bounded store restored
// from them reproduces the original eviction order.
type Problem struct {
	Table     encoding.TableKey
	Objective uint8
	Entries   []Entry
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
	x.u32(encoding.FingerprintLayout)
	x.u32(sim.KernelVersion)

	x.u32(uint32(len(s.Problems)))
	for _, p := range s.Problems {
		x.u64(p.Table.A)
		x.u64(p.Table.B)
		x.u32(uint32(p.Objective))
		x.u32(uint32(len(p.Entries)))
		for _, e := range p.Entries {
			x.u64(e.FP.A)
			x.u64(e.FP.B)
			x.u64(math.Float64bits(e.Fitness))
		}
	}
	x.u32(uint32(len(s.Warm)))
	for _, wt := range s.Warm {
		x.u32(uint32(wt.Task))
		x.u32(uint32(len(wt.Seeds)))
		for _, g := range wt.Seeds {
			if len(g.Accel) != len(g.Prio) {
				return fmt.Errorf("persist: warm seed with %d accel but %d prio genes", len(g.Accel), len(g.Prio))
			}
			x.u32(uint32(len(g.Accel)))
			for _, a := range g.Accel {
				x.u32(uint32(a))
			}
			for _, p := range g.Prio {
				x.u64(math.Float64bits(p))
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
// failure, implausible counts, trailing bytes —
// returns an error wrapping ErrCorrupt; an incompatible version field
// returns a *VersionError. Either way the caller should boot cold.
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
		{"fingerprint layout", encoding.FingerprintLayout},
		{"sim kernel", sim.KernelVersion},
	} {
		got, err := x.u32()
		if err != nil {
			return nil, err
		}
		if got != v.want {
			return nil, &VersionError{Field: v.field, Got: got, Want: v.want}
		}
	}

	nProblems, err := x.u32()
	if err != nil {
		return nil, err
	}
	if nProblems > maxProblems {
		return nil, fmt.Errorf("%w: %d problems", ErrCorrupt, nProblems)
	}
	s := &Snapshot{}
	for pi := uint32(0); pi < nProblems; pi++ {
		var p Problem
		if p.Table.A, err = x.u64(); err != nil {
			return nil, err
		}
		if p.Table.B, err = x.u64(); err != nil {
			return nil, err
		}
		obj, err := x.u32()
		if err != nil {
			return nil, err
		}
		if obj >= maxObjectiveWire {
			return nil, fmt.Errorf("%w: objective %d", ErrCorrupt, obj)
		}
		p.Objective = uint8(obj)
		nEntries, err := x.u32()
		if err != nil {
			return nil, err
		}
		if nEntries > maxEntries {
			return nil, fmt.Errorf("%w: %d entries", ErrCorrupt, nEntries)
		}
		p.Entries = make([]Entry, 0, min(nEntries, preallocCap))
		for range nEntries {
			var e Entry
			if e.FP.A, err = x.u64(); err != nil {
				return nil, err
			}
			if e.FP.B, err = x.u64(); err != nil {
				return nil, err
			}
			bits, err := x.u64()
			if err != nil {
				return nil, err
			}
			e.Fitness = math.Float64frombits(bits)
			p.Entries = append(p.Entries, e)
		}
		s.Problems = append(s.Problems, p)
	}

	nWarm, err := x.u32()
	if err != nil {
		return nil, err
	}
	if nWarm > maxWarmTasks {
		return nil, fmt.Errorf("%w: %d warm tasks", ErrCorrupt, nWarm)
	}
	for wi := uint32(0); wi < nWarm; wi++ {
		var wt WarmTask
		task, err := x.u32()
		if err != nil {
			return nil, err
		}
		if task >= maxObjectiveWire {
			return nil, fmt.Errorf("%w: task %d", ErrCorrupt, task)
		}
		wt.Task = uint8(task)
		nSeeds, err := x.u32()
		if err != nil {
			return nil, err
		}
		if nSeeds > maxSeedsPerTask {
			return nil, fmt.Errorf("%w: %d seeds", ErrCorrupt, nSeeds)
		}
		for si := uint32(0); si < nSeeds; si++ {
			nGenes, err := x.u32()
			if err != nil {
				return nil, err
			}
			if nGenes > maxGenesPerSeed {
				return nil, fmt.Errorf("%w: %d genes", ErrCorrupt, nGenes)
			}
			n := min(nGenes, preallocCap)
			g := encoding.Genome{Accel: make([]int, 0, n), Prio: make([]float64, 0, n)}
			for range nGenes {
				a, err := x.u32()
				if err != nil {
					return nil, err
				}
				g.Accel = append(g.Accel, int(a))
			}
			for range nGenes {
				bits, err := x.u64()
				if err != nil {
					return nil, err
				}
				g.Prio = append(g.Prio, math.Float64frombits(bits))
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

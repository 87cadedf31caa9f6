package magma

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	optmagma "magma/internal/opt/magma"
	"magma/internal/persist"
	"magma/internal/rng"
	"magma/internal/sim"
)

var (
	updateDigests = flag.Bool("update", false, "regenerate testdata/digests.json from the current code")
	digestsPath   = filepath.Join("testdata", "digests.json")
	digestMappers = []string{"MAGMA", "stdGA"}
	digestJobs    = []int{16, 30}
	// digestOthers are the remaining registered mappers, pinned on one
	// cell each (Throughput, J16, S2@16). The RL mappers are left out:
	// at this budget one search takes 19 s (A2C) and 63 s (PPO2).
	digestOthers   = []string{"DE", "CMA", "TBPSA", "PSO", "Random", "Herald-like", "AI-MT-like"}
	digestBudget   = 3000
	digestSettings = []struct {
		name string
		pf   func() Platform
	}{
		{"S2@16", func() Platform { return PlatformS2().WithBW(16) }},
		{"S4", PlatformS4},
	}
)

// resultDigest hashes everything a search returns that a change to the
// search could move: the best genome, its fitness bits, the samples and
// genomes consumed, and the convergence curve.
func resultDigest(s Schedule) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(len(s.Genome.Accel)))
	for _, a := range s.Genome.Accel {
		word(uint64(int64(a)))
	}
	for _, p := range s.Genome.Prio {
		word(math.Float64bits(p))
	}
	word(math.Float64bits(s.Fitness))
	word(uint64(s.Samples))
	word(uint64(s.Asked))
	word(uint64(len(s.Curve)))
	for _, f := range s.Curve {
		word(math.Float64bits(f))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestFile is testdata/digests.json: one digest per cell, and the
// version constants of the code that recorded them.
type digestFile struct {
	Constants map[string]int    `json:"constants"`
	Cells     map[string]string `json:"cells"`
}

// resultsLayout names persist.ResultsLayout among digestConstants.
const resultsLayout = "persist.ResultsLayout"

// digestConstants are the version constants a change that means to move
// results bumps: the seed→stream layout, MAGMA's draw order, the
// simulator's arithmetic, and the results layout a snapshot's memo is
// checked against, which moves with every one of them.
func digestConstants() map[string]int {
	return map[string]int{
		"rng.Layout":          rng.Layout,
		"optmagma.DrawLayout": optmagma.DrawLayout,
		"sim.KernelVersion":   sim.KernelVersion,
		resultsLayout:         persist.ResultsLayout,
	}
}

// TestResultDigests pins the result of the pruned mappers (MAGMA and
// stdGA) bit for bit on every objective, two group sizes and two
// platforms, and of every other registered mapper on Throughput at J16
// on S2@16. Each cell runs uncached, cached on a private Solver, and
// cached on one Solver shared by every cell. A search cell then repeats
// its shared-Solver run, which its problem's memo of finished searches
// answers without simulating. All runs of a cell must reproduce the one
// committed digest.
//
// The file also records digestConstants. A constant that moved is a
// declared break: the test fails until the file is regenerated. Only
// persist.ResultsLayout declares a moved digest, so any other constant
// that moves without it fails too: a snapshot written before the break
// would otherwise restore memo entries the new code no longer returns.
// A digest that moved while ResultsLayout holds is a break nobody
// declared, and its failure says so. A change that means to move
// results bumps the constant behind it and ResultsLayout, regenerates
// the file with
//
//	go test -run TestResultDigests -update .
//
// and says why in CHANGES.md. Go may fuse multiply-adds on other
// architectures, so the digests are defined for amd64 only.
func TestResultDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("result digests are defined on amd64; this is %s", runtime.GOARCH)
	}
	var want digestFile
	undeclared := "no break was declared: the recorded " + resultsLayout + " equals the code's"
	if !*updateDigests {
		raw, err := os.ReadFile(digestsPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", digestsPath, err)
		}
		var moved []string
		for name, v := range digestConstants() {
			if rec, ok := want.Constants[name]; !ok || rec != v {
				t.Errorf("%s is %d, %s records %d: a declared break; regenerate the file with -update", name, v, digestsPath, rec)
				moved = append(moved, name)
			}
		}
		switch {
		case slices.Contains(moved, resultsLayout):
			undeclared = "a break was declared (see the constants above)"
		case len(moved) > 0:
			t.Errorf("%v moved but %s did not: bump it with any declared break", moved, resultsLayout)
		}
		if len(want.Constants) != len(digestConstants()) {
			t.Errorf("%s records constants %v, want exactly %v", digestsPath, want.Constants, digestConstants())
		}
	}
	got := map[string]string{}
	solver := NewSolver(SolverOptions{})
	runCell := func(g Group, pf Platform, setting, mapper string, obj Objective) {
		cell := fmt.Sprintf("%s/%s/J%d/%s", mapper, obj, len(g.Jobs), setting)
		for _, cache := range []string{"off", "own", "shared", "repeat"} {
			opts := Options{Mapper: mapper, Objective: obj, Budget: digestBudget, Seed: 7}
			switch cache {
			case "own":
				opts.Cache = true
			case "shared", "repeat":
				opts.Cache, opts.Solver = true, solver
			}
			memoHits := solver.Stats().MemoHits
			s, err := Optimize(g, pf, opts)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			d := resultDigest(s)
			run := fmt.Sprintf("%s (cache=%s)", cell, cache)
			if cache == "repeat" && heuristicFor(mapper) == nil {
				if got := solver.Stats().MemoHits - memoHits; got != 1 {
					t.Errorf("%s: %d memo hits, want 1", run, got)
				}
				if sims := s.Cache.Misses - s.Cache.BoundPruned; sims != 0 || s.Phases.Generations != 0 {
					t.Errorf("%s: %d simulations over %d generations, want none", run, sims, s.Phases.Generations)
				}
			}
			if prev, ok := got[cell]; ok && prev != d {
				t.Errorf("%s: digest %s differs from the cell's first run %s", run, d, prev)
				continue
			}
			got[cell] = d
			if !*updateDigests && want.Cells[cell] != d {
				t.Errorf("%s: digest %s, committed %q; %s", run, d, want.Cells[cell], undeclared)
			}
		}
	}
	for _, n := range digestJobs {
		g := testGroup(t, Mix, n)
		for _, st := range digestSettings {
			for _, obj := range []Objective{Throughput, Latency, Energy, EDP} {
				for _, mapper := range digestMappers {
					runCell(g, st.pf(), st.name, mapper, obj)
				}
			}
		}
	}
	for _, mapper := range digestOthers {
		runCell(testGroup(t, Mix, 16), digestSettings[0].pf(), digestSettings[0].name, mapper, Throughput)
	}
	if !*updateDigests {
		if len(want.Cells) != len(got) {
			t.Errorf("%s holds %d cells, the test runs %d", digestsPath, len(want.Cells), len(got))
		}
		return
	}
	raw, err := json.MarshalIndent(digestFile{Constants: digestConstants(), Cells: got}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(digestsPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestsPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

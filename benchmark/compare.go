package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json compare reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// readRecords loads every untraced result file under dir.
func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	return recs, nil
}

// sample is one metric's values over a result set, keyed by seed so
// that two sets can be paired.
type sample map[int64][]float64

func (s sample) values() []float64 {
	var out []float64
	for _, seed := range s.seeds() {
		out = append(out, s[seed]...)
	}
	return out
}

func (s sample) seeds() []int64 {
	seeds := make([]int64, 0, len(s))
	for seed := range s {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

func samples(recs []record) map[string]map[string]sample {
	out := map[string]map[string]sample{}
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]sample{}
		}
		for name, m := range r.Result.Metrics {
			s := out[r.Workload][name]
			if s == nil {
				s = sample{}
				out[r.Workload][name] = s
			}
			s[r.Seed] = append(s[r.Seed], m.Value)
		}
	}
	return out
}

// worsening is how much worse b is than a, as a share of a: positive
// when b is worse in the metric's direction.
func worsening(a, b float64, higherBetter bool) float64 {
	d := (b - a) / math.Abs(a)
	if higherBetter {
		return -d
	}
	return d
}

// runCompare summarizes result sets against BENCHMARK.json.
//
//	compare DIR          spread of each (workload, metric): median,
//	                     quartiles, and whether the interquartile range
//	                     as a share of the median is within the bound
//	compare PARENT CHANGE  medians and quartiles of both sides, the
//	                     change's worsening against the bound, and over
//	                     seeds run on both sides the change's win ratio
//	                     and the parent's interquartile range
//
// It exits 1 when a spread (setup_s excepted) or a worsening exceeds its
// bound.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	manifestPath := fs.String("manifest", "BENCHMARK.json", "benchmark manifest with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [--manifest BENCHMARK.json] RESULTS_DIR [CHANGE_RESULTS_DIR]")
		return 2
	}
	m, err := readManifest(*manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	var sets []map[string]map[string]sample
	for _, dir := range fs.Args() {
		recs, err := readRecords(dir)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		sets = append(sets, samples(recs))
	}
	violations := 0
	for _, w := range m.Workloads {
		if sets[0][w.Name] == nil {
			continue
		}
		fmt.Fprintf(stdout, "%s\n", w.Name)
		for _, def := range m.EndToEnd {
			higher := def.Better == "higher"
			a := sets[0][w.Name][def.Name]
			if len(a) == 0 {
				continue
			}
			av := a.values()
			aq1, aq3 := quartiles(av)
			if len(sets) == 1 {
				sp := spread(av)
				verdict := "ok"
				switch {
				case def.Name == "setup_s":
					verdict = "not bounded"
				case sp > def.Bound:
					verdict = "OVER BOUND"
					violations++
				case sp > def.Bound/3:
					verdict = "over a third of bound"
				}
				fmt.Fprintf(stdout, "  %-16s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% (bound %g%%) %s\n",
					def.Name, len(av), median(av), aq1, aq3, 100*sp, 100*def.Bound, verdict)
				continue
			}
			b := sets[1][w.Name][def.Name]
			if len(b) == 0 {
				continue
			}
			bv := b.values()
			bq1, bq3 := quartiles(bv)
			worse := worsening(median(av), median(bv), higher)
			verdict := "within bound"
			if worse > def.Bound {
				verdict = "WORSE THAN BOUND"
				violations++
			}
			var pa, pb []float64
			for _, seed := range a.seeds() {
				if len(b[seed]) > 0 {
					pa = append(pa, median(a[seed]))
					pb = append(pb, median(b[seed]))
				}
			}
			pairs := "no paired seeds"
			if len(pa) > 0 {
				pairs = fmt.Sprintf("win ratio %.2f over %d pairs, parent IQR %.6g", winRatio(pa, pb, higher), len(pa), aq3-aq1)
			}
			fmt.Fprintf(stdout, "  %-16s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  worse by %+.2f%% (bound %g%%) %s; %s\n",
				def.Name, median(av), aq1, aq3, median(bv), bq1, bq3, 100*worse, 100*def.Bound, verdict, pairs)
		}
	}
	if violations > 0 {
		return 1
	}
	return 0
}

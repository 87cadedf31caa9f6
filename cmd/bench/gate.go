package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// A gate is one assertion on a report: the number at path compared by
// op against bound, or against bound·ref + slack when ref names a
// second path. A path is dot-separated JSON keys; a numeric segment
// indexes an array and "*" applies the gate to every element of a
// non-empty array or object. A missing path fails the gate, so
// renaming a gated field fails the run.
type gate struct {
	report string // "eval" or "serve": the report the gate checks
	when   string // section the gate needs; it is skipped when absent
	path   string
	op     string // ">", ">=", "<=", or "true" for a boolean
	bound  float64
	ref    string
	slack  float64
}

// gates is every assertion made on a bench report.
var gates = []gate{
	{report: "eval", path: "bound_prune_rate", op: ">", bound: 0},
	{report: "eval", path: "bound.pruned", op: ">", bound: 0},
	// The shipped event kernel against the v1 oracle at 100 jobs on 16
	// cores (measured 2.2–3.5×; 1.2 is the floor of the O(J·log A) claim).
	{report: "eval", path: "kernel_speedup", op: ">=", bound: 1.2},
	// Pricing a schedule's virtual-time makespan against simulating it,
	// at 100 jobs on 4 cores (measured 2.2–3.5×). The pruning pass prices
	// every genome that passes the roofline, so the stage pays only while
	// pricing stays well below a simulation.
	{report: "eval", path: "virtual_speedup", op: ">=", bound: 2},
	{report: "eval", path: "phase_breakdown.rows.*.reasks", op: ">", bound: 0},
	{report: "eval", path: "phase_breakdown.rows.*.generations", op: ">", bound: 0},
	// Pruned generations are no slower than unpruned ones (1.05 absorbs
	// runner noise).
	{report: "eval", path: "bound.on_ns_per_gen", op: "<=", bound: 1.05, ref: "bound.off_ns_per_gen"},

	{report: "serve", path: "cross_request_hit_rate", op: ">", bound: 0},
	// Like the cache counters, memo hits are only required to be there.
	{report: "serve", path: "memo_hits", op: ">=", bound: 0},
	{report: "serve", path: "requests_per_sec", op: ">", bound: 0},
	{report: "serve", when: "chaos", path: "chaos.mapper_panics", op: ">", bound: 0},
	{report: "serve", when: "chaos", path: "chaos.succeeded", op: ">", bound: 0},
	{report: "serve", when: "chaos", path: "chaos.failed_500s", op: ">", bound: 0},
	// The delay hooks must fire: a chaos report that claims delayed
	// simulations and stalled kernel passes has to have injected some.
	{report: "serve", when: "chaos", path: "chaos.delayed_simulations", op: ">", bound: 0},
	{report: "serve", when: "chaos", path: "chaos.kernel_stalls", op: ">", bound: 0},
	{report: "serve", when: "chaos", path: "chaos.snapshot_restore_ok", op: "true"},
	{report: "serve", when: "fleet", path: "latency_ms.p99", op: ">", bound: 0},
	{report: "serve", when: "fleet", path: "fleet.ownership_disjoint", op: "true"},
	// Sharding must not cost reuse: the fleet's aggregate cross-request
	// hit rate holds the same-run single-node baseline's. Sound only when
	// both legs replay one request sequence, so run it with -clients 1.
	// Each shard's own rate is a share of that aggregate, so one sits
	// below it unless all are equal; those are reported, not gated.
	{report: "serve", when: "fleet", path: "cross_request_hit_rate", op: ">=", bound: 1,
		ref: "fleet.single_node_baseline.cross_request_hit_rate", slack: -1e-9},
}

func (g gate) String() string {
	s := g.path
	if g.op != "true" {
		s += fmt.Sprintf(" %s %g", g.op, g.bound)
	}
	if g.ref != "" {
		s += "·" + g.ref
	}
	if g.slack != 0 {
		s += fmt.Sprintf(" %+g", g.slack)
	}
	return s
}

// check evaluates the gates of one report kind against the decoded
// report, printing one line per gate, and returns an error naming
// every gate that failed.
func check(w io.Writer, report string, doc map[string]any) error {
	var failed []string
	for _, g := range gates {
		if g.report != report {
			continue
		}
		if skip := g.skip(doc); skip != "" {
			fmt.Fprintf(w, "gate skip %s (%s)\n", g, skip)
			continue
		}
		if err := g.eval(doc); err != nil {
			fmt.Fprintf(w, "gate FAIL %s: %v\n", g, err)
			failed = append(failed, g.String())
			continue
		}
		fmt.Fprintf(w, "gate ok   %s\n", g)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d gate(s) failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// skip says why g does not apply to doc, or "" when it does.
func (g gate) skip(doc map[string]any) string {
	if _, err := lookup(doc, g.when); g.when != "" && err != nil {
		return "no " + g.when + " section"
	}
	return ""
}

// eval applies g to every value its path selects.
func (g gate) eval(doc map[string]any) error {
	vals, err := lookup(doc, g.path)
	if err != nil {
		return err
	}
	limit := g.bound
	if g.ref != "" {
		r, err := number(doc, g.ref)
		if err != nil {
			return err
		}
		limit = g.bound*r + g.slack
	}
	for _, v := range vals {
		x, isNum := v.(float64)
		var pass bool
		switch g.op {
		case "true":
			pass = v == true
		case ">":
			pass = isNum && x > limit
		case ">=":
			pass = isNum && x >= limit
		case "<=":
			pass = isNum && x <= limit
		}
		if !pass {
			return fmt.Errorf("got %v", v)
		}
	}
	return nil
}

// number looks up a path that must select exactly one number.
func number(doc map[string]any, path string) (float64, error) {
	vals, err := lookup(doc, path)
	if err != nil {
		return 0, err
	}
	x, ok := vals[0].(float64)
	if len(vals) != 1 || !ok {
		return 0, fmt.Errorf("%s: want one number, got %v", path, vals)
	}
	return x, nil
}

// lookup returns the values a gate path selects in a decoded JSON
// document.
func lookup(doc map[string]any, path string) ([]any, error) {
	vals := []any{doc}
	for _, seg := range strings.Split(path, ".") {
		var next []any
		for _, v := range vals {
			switch node := v.(type) {
			case map[string]any:
				if seg != "*" {
					child, ok := node[seg]
					if !ok {
						return nil, fmt.Errorf("%s: no field %q", path, seg)
					}
					next = append(next, child)
					continue
				}
				for _, child := range node {
					next = append(next, child)
				}
			case []any:
				if seg != "*" {
					i, err := strconv.Atoi(seg)
					if err != nil || i < 0 || i >= len(node) {
						return nil, fmt.Errorf("%s: no element %q of %d", path, seg, len(node))
					}
					next = append(next, node[i])
					continue
				}
				next = append(next, node...)
			default:
				return nil, fmt.Errorf("%s: %q is not inside an object or array", path, seg)
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("%s: %q selects nothing", path, seg)
		}
		vals = next
	}
	return vals, nil
}

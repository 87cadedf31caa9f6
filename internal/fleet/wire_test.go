package fleet

import (
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateWire = flag.Bool("update", false, "regenerate testdata/wire.golden from the current code")

// wireGolden collects the shape of each body a test fetched: a
// "name path type" line for every distinct JSON key path and value type
// in the body fetched as name. Values are left out, so timings, job ids
// and fitness never move the golden; a field added, dropped, renamed or
// retyped does.
type wireGolden map[string]bool

// add merges the shape of body into the lines of name (one word).
func (g wireGolden) add(t *testing.T, name string, body []byte) {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: %v (%s)", name, err, body)
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		typ := "null"
		switch x := v.(type) {
		case map[string]any:
			typ = "object"
			for k, e := range x {
				walk(path+"."+k, e)
			}
		case []any:
			typ = "array"
			for _, e := range x {
				walk(path+"[]", e)
			}
		case string:
			typ = "string"
		case float64:
			typ = "number"
		case bool:
			typ = "bool"
		}
		g[name+" "+path+" "+typ] = true
	}
	walk("$", v)
}

// check compares the collected lines with the golden file, or rewrites
// it under -update.
func (g wireGolden) check(t *testing.T, path string) {
	t.Helper()
	got := sortedLines(g)
	if *updateWire {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		want[line] = true
	}
	var diff []string
	for _, line := range sortedLines(want) {
		if !g[line] {
			diff = append(diff, "- "+line)
		}
	}
	for _, line := range got {
		if !want[line] {
			diff = append(diff, "+ "+line)
		}
	}
	if len(diff) > 0 {
		t.Errorf("wire shapes differ from %s (run with -update if the change is meant):\n%s", path, strings.Join(diff, "\n"))
	}
}

func sortedLines(set map[string]bool) []string {
	lines := make([]string, 0, len(set))
	for line := range set {
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}

package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"magma/internal/models"
)

// canonicalDoc is WriteJSON's document for a generated workload.
func canonicalDoc(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	w, err := Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// scanned reports whether DecodeJSON reads doc in one pass.
func scanned(doc []byte) bool {
	_, ok := scanDocument(doc)
	return ok
}

// sameAsReflect fails unless DecodeJSON gives what the encoding/json
// path alone gives for doc: a deep-equal workload, or the same error.
func sameAsReflect(t *testing.T, doc []byte) {
	t.Helper()
	got, err := DecodeJSON(doc)
	want, wantErr := decodeReflect(doc)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("DecodeJSON(%q) error %v, encoding/json alone %v", doc, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeJSON(%q) = %+v, encoding/json alone %+v", doc, got, want)
	}
}

// TestCanonicalDocumentsScan: every document WriteJSON writes takes the
// one-pass path, and decodes to the workload that was written.
func TestCanonicalDocumentsScan(t *testing.T) {
	for _, task := range models.Tasks() {
		for _, cfg := range []Config{{Task: task, NumJobs: 64, GroupSize: 16, Seed: 1}, {Task: task, NumJobs: 5, GroupSize: 100, Seed: 2}} {
			doc := canonicalDoc(t, cfg)
			if !scanned(doc) {
				t.Fatalf("%+v: WriteJSON's document declined", cfg)
			}
			want, _ := Generate(cfg)
			got, err := DecodeJSON(doc)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: DecodeJSON = %v, %v", cfg, got, err)
			}
			sameAsReflect(t, doc)
		}
	}
}

// TestScanCoversJobForm sets every field of the job form and fails when
// WriteJSON's document for it declines, so a field added to the form
// cannot silently fall off the one-pass path.
func TestScanCoversJobForm(t *testing.T) {
	w, err := Generate(Config{Task: models.Mix, NumJobs: 16, GroupSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w.Groups[1].Jobs[1].Layer.Name = "every-field"
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc workloadJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// Index 1 of both, so no ID or index is the zero value.
	for name, v := range map[string]reflect.Value{
		"workload": reflect.ValueOf(doc),
		"group":    reflect.ValueOf(doc.Groups[1]),
		"job":      reflect.ValueOf(doc.Groups[1].Jobs[1]),
	} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("the %s form's field %s is unset in the sample", name, v.Type().Field(i).Name)
			}
		}
	}
	for _, keys := range []struct {
		form reflect.Type
		keys []string
	}{
		{reflect.TypeOf(workloadJSON{}), workloadKeys},
		{reflect.TypeOf(groupJSON{}), groupKeys},
		{reflect.TypeOf(jobJSON{}), jobKeys},
	} {
		var tags []string
		for i := 0; i < keys.form.NumField(); i++ {
			tags = append(tags, keys.form.Field(i).Tag.Get("json"))
		}
		if !reflect.DeepEqual(tags, keys.keys) {
			t.Errorf("%v has keys %q, the reader %q", keys.form, tags, keys.keys)
		}
	}
	if !scanned(buf.Bytes()) {
		t.Fatalf("a document with every field set declined: %s", buf.Bytes())
	}
	sameAsReflect(t, buf.Bytes())
}

// TestNonCanonicalSpellings: each spelling WriteJSON never writes, and
// each document it never writes, declines, and then decodes exactly as
// encoding/json alone decodes it.
func TestNonCanonicalSpellings(t *testing.T) {
	doc := string(canonicalDoc(t, Config{Task: models.Mix, NumJobs: 8, GroupSize: 4, Seed: 1}))
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(doc), "", "  "); err != nil {
		t.Fatal(err)
	}
	first := doc[strings.Index(doc, `"shape":[`)+len(`"shape":[`):]
	first = first[:strings.Index(first, "]")]
	kind := doc[strings.Index(doc, `"kind":`):strings.Index(doc, `"layer":`)]
	for _, tc := range []struct{ name, old, new string }{
		{"indented", doc, indented.String()},
		{"reordered keys", `{"name":"Mix-n8-g4-s1","task":"Mix",`, `{"task":"Mix","name":"Mix-n8-g4-s1",`},
		{"escape", `"name":"Mix-`, `"name":"\u0041Mix-`},
		{"HTML escape", `"name":"Mix-`, `"name":"\u003cMix-`},
		{"non-ASCII name", `"name":"Mix-`, `"name":"Mïx-`},
		{"upper-case key", `"name":`, `"Name":`},
		{"duplicate key", `"task":"Mix",`, `"task":"Mix","task":"Vision",`},
		{"unknown key", `"task":"Mix",`, `"task":"Mix","tenant":"a",`},
		{"fraction", `"index":0`, `"index":1.0`},
		{"exponent", `"index":0`, `"index":1e2`},
		{"negative zero", `"index":0`, `"index":-0`},
		{"19-digit integer", `"index":0`, `"index":1000000000000000000`},
		{"null groups", doc[strings.Index(doc, `"groups":`) : len(doc)-2], `"groups":null`},
		{"6-element shape", first + "]", first[:strings.LastIndex(first, ",")] + "]"},
		{"8-element shape", first + "]", first + ",1]"},
		{"trailing bytes", "}\n", "}x"},
		// Spelled as WriteJSON spells a document, but one it never writes.
		{"missing key", kind, ""},
		{"misnumbered job", `"id":0,`, `"id":5,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(doc, tc.old) {
				t.Fatalf("%q is not in the document", tc.old)
			}
			spelled := []byte(strings.Replace(doc, tc.old, tc.new, 1))
			if scanned(spelled) {
				t.Fatalf("%s", spelled)
			}
			sameAsReflect(t, spelled)
		})
	}
}

// FuzzReadWorkload: for any bytes, DecodeJSON gives what the
// encoding/json path alone gives, and neither panics. Seeds: WriteJSON's
// documents for every task. Explore beyond them with
//
//	go test -run=NONE -fuzz=FuzzReadWorkload -fuzztime=10s ./internal/workload/
func FuzzReadWorkload(f *testing.F) {
	for _, task := range models.Tasks() {
		f.Add(canonicalDoc(f, Config{Task: task, NumJobs: 8, GroupSize: 4, Seed: 1}))
	}
	f.Fuzz(func(t *testing.T, doc []byte) { sameAsReflect(t, doc) })
}

// BenchmarkReadJSON reads the router's 64-job body workload and a
// shard's 16-job sub-request workload as WriteJSON writes them, and the
// 64-job document indented, which takes the encoding/json path.
func BenchmarkReadJSON(b *testing.B) {
	for _, row := range []struct {
		name   string
		jobs   int
		indent bool
	}{{"canonical/jobs=16", 16, false}, {"canonical/jobs=64", 64, false}, {"indented/jobs=64", 64, true}} {
		b.Run(row.name, func(b *testing.B) {
			doc := canonicalDoc(b, Config{Task: models.Mix, NumJobs: row.jobs, GroupSize: 16, Seed: 1})
			if row.indent {
				var buf bytes.Buffer
				if err := json.Indent(&buf, doc, "", "  "); err != nil {
					b.Fatal(err)
				}
				doc = buf.Bytes()
			}
			if scanned(doc) == row.indent {
				b.Fatalf("%s: one-pass path taken = %v", row.name, !row.indent)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := ReadJSON(bytes.NewReader(doc))
				if err != nil {
					b.Fatal(err)
				}
				sinkWorkload = w
			}
		})
	}
}

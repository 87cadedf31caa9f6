package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"magma"
	"magma/internal/models"
)

// canonicalBodies returns, for every task, an inline request body and a
// generate request body as json.Marshal writes them, the inline
// workload as Workload.WriteJSON writes it.
func canonicalBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var bodies [][]byte
	for _, task := range models.Tasks() {
		cfg := magma.WorkloadConfig{Task: task, NumJobs: 16, GroupSize: 8, Seed: 1}
		wl, err := magma.GenerateWorkload(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		var inline bytes.Buffer
		if err := wl.WriteJSON(&inline); err != nil {
			tb.Fatal(err)
		}
		opts := RequestOptions{BudgetPerGroup: 64, Seed: 1}
		for _, req := range []OptimizeRequest{
			{Workload: inline.Bytes(), Platform: "S2", Options: opts},
			{Generate: &GenerateSpec{Task: task.String(), NumJobs: cfg.NumJobs, GroupSize: cfg.GroupSize, Seed: cfg.Seed}, Platform: "S2", Options: opts},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// scanned reports whether DecodeRequest reads body in one pass.
func scanned(body []byte) bool {
	_, ok := scanRequest(body)
	return ok
}

// sameAsReflect fails unless DecodeRequest gives what the encoding/json
// path alone gives for body: a deep-equal request, or the same error.
func sameAsReflect(t *testing.T, body []byte) {
	t.Helper()
	got, err := DecodeRequest(body)
	want, wantErr := decodeRequestReflect(body)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("DecodeRequest(%q) error %v, encoding/json alone %v", body, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeRequest(%q) = %+v, encoding/json alone %+v", body, got, want)
	}
}

// TestCanonicalRequestsScan: every body json.Marshal writes for an inline
// or generate request takes the one-pass path, and the request it gives
// shares no memory with the body.
func TestCanonicalRequestsScan(t *testing.T) {
	for _, body := range canonicalBodies(t) {
		if !scanned(body) {
			t.Fatalf("declined %s", body)
		}
		sameAsReflect(t, body)
		req, _ := DecodeRequest(body)
		want := bytes.Clone(req.Workload)
		for i := range body {
			body[i] = 0
		}
		if !bytes.Equal(req.Workload, want) {
			t.Fatalf("the decoded workload changed with the body")
		}
	}
}

// fill sets every field of v, recursively, to a value other than its
// zero value; workload is the inline workload's bytes.
func fill(t *testing.T, v reflect.Value, workload []byte) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), workload)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), workload)
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(32)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		if v.Type() != reflect.TypeOf(json.RawMessage(nil)) {
			t.Fatalf("no sample value for %v", v.Type())
		}
		v.SetBytes(workload)
	default:
		t.Fatalf("no sample value for %v", v.Type())
	}
}

// TestScanCoversRequestForm sets every field of OptimizeRequest,
// GenerateSpec and RequestOptions and fails when json.Marshal's body
// for them declines, so a field added to the request cannot silently
// fall off the one-pass path.
func TestScanCoversRequestForm(t *testing.T) {
	wl, err := magma.GenerateWorkload(magma.WorkloadConfig{Task: models.Mix, NumJobs: 8, GroupSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var inline bytes.Buffer
	if err := wl.WriteJSON(&inline); err != nil {
		t.Fatal(err)
	}
	var req OptimizeRequest
	fill(t, reflect.ValueOf(&req).Elem(), bytes.TrimSpace(inline.Bytes()))
	for _, form := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeOf(OptimizeRequest{}), requestKeys},
		{reflect.TypeOf(GenerateSpec{}), generateKeys},
		{reflect.TypeOf(RequestOptions{}), optionKeys},
	} {
		var tags []string
		for i := 0; i < form.typ.NumField(); i++ {
			name, _, _ := strings.Cut(form.typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !reflect.DeepEqual(tags, form.keys) {
			t.Errorf("%v has keys %q, the reader %q", form.typ, tags, form.keys)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !scanned(body) {
		t.Fatalf("a body with every field set declined: %s", body)
	}
	sameAsReflect(t, body)
}

// TestNonCanonicalRequestSpellings: each spelling json.Marshal never
// writes, in the envelope or its inline workload, declines, and then
// decodes exactly as encoding/json alone decodes it.
func TestNonCanonicalRequestSpellings(t *testing.T) {
	body := string(canonicalBodies(t)[6]) // Mix, inline
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(body), "", "  "); err != nil {
		t.Fatal(err)
	}
	groups := body[strings.Index(body, `"groups":`) : strings.Index(body, `,"platform"`)-1]
	shape := body[strings.Index(body, `"shape":[`)+len(`"shape":[`):]
	shape = shape[:strings.Index(shape, "]")]
	for _, tc := range []struct{ name, old, new string }{
		{"indented", body, indented.String()},
		{"reordered keys", `"budget_per_group":64,"seed":1`, `"seed":1,"budget_per_group":64`},
		{"escape", `"platform":"S2"`, `"platform":"\u00532"`},
		{"HTML escape", `"platform":"S2"`, `"platform":"\u003cS2"`},
		{"non-ASCII name", `"platform":"S2"`, `"platform":"Sé2"`},
		{"upper-case key", `"platform":`, `"Platform":`},
		{"duplicate key", `"platform":"S2",`, `"platform":"S2","platform":"S4",`},
		{"unknown key", `"options":{`, `"options":{"workers":2,`},
		{"fraction", `"seed":1}`, `"seed":1.0}`},
		{"exponent", `"platform":"S2",`, `"platform":"S2","bw":1e2,`},
		{"fractional bw", `"platform":"S2",`, `"platform":"S2","bw":12.5,`},
		{"negative zero", `"seed":1}`, `"seed":-0}`},
		{"19-digit integer", `"seed":1}`, `"seed":1000000000000000000}`},
		{"null groups", groups, `"groups":null`},
		{"null workload", body[:strings.Index(body, `,"platform"`)], `{"workload":null`},
		{"null generate", `"platform":"S2",`, `"generate":null,"platform":"S2",`},
		{"6-element shape", shape + "]", shape[:strings.LastIndex(shape, ",")] + "]"},
		{"8-element shape", shape + "]", shape + ",1]"},
		{"trailing bytes", body, body + " {}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(body, tc.old) {
				t.Fatalf("%q is not in the body", tc.old)
			}
			spelled := []byte(strings.Replace(body, tc.old, tc.new, 1))
			if scanned(spelled) {
				t.Fatalf("%s", spelled)
			}
			sameAsReflect(t, spelled)
		})
	}
}

// FuzzDecodeRequest: for any bytes, DecodeRequest gives what the
// encoding/json path alone gives, and neither panics. Seeds: inline and
// generate bodies of every task as json.Marshal writes them. Explore
// beyond them with
//
//	go test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=10s ./internal/serve/
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range canonicalBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { sameAsReflect(t, body) })
}

// TestNegativeBWRefused: a negative bw is a 400 naming the field, not a
// request served at the setting's default bandwidth; 0 means the
// default.
func TestNegativeBWRefused(t *testing.T) {
	s := New(magma.NewSolver(magma.SolverOptions{}))
	const spec = `{"generate":{"task":"Mix","num_jobs":16,"group_size":16,"seed":1},"platform":"S2"`
	if _, err := s.parseRequest(strings.NewReader(spec + `,"bw":-5}`)); err == nil || !strings.Contains(err.Error(), "bw") {
		t.Fatalf("bw -5: error %v, want one naming bw", err)
	}
	for body, want := range map[string]float64{spec + `}`: 16, spec + `,"bw":0}`: 16, spec + `,"bw":32}`: 32} {
		run, err := s.parseRequest(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if run.pf.SystemBWGBs != want {
			t.Errorf("%s: %g GB/s, want %g", body, run.pf.SystemBWGBs, want)
		}
	}
}

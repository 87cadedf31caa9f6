package workload_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"magma"
	"magma/internal/models"
	"magma/internal/workload"
)

// TestReadsIndentedDocuments: WriteJSON writes one compact line, and a
// document in the indented form it wrote before still reads back, through
// ReadJSON and magma.ReadWorkloadJSON, into the same workload.
func TestReadsIndentedDocuments(t *testing.T) {
	w, err := workload.Generate(workload.Config{Task: models.Mix, NumJobs: 150, GroupSize: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := w.WriteJSON(&compact); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(compact.Bytes(), []byte("\n")); n != 1 || !bytes.HasSuffix(compact.Bytes(), []byte("\n")) {
		t.Fatalf("WriteJSON wrote %d newlines, want one trailing newline", n)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{compact.Bytes(), indented.Bytes()} {
		got, err := workload.ReadJSON(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("ReadJSON of %d bytes changed the workload", len(doc))
		}
		got, err = magma.ReadWorkloadJSON(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("magma.ReadWorkloadJSON of %d bytes changed the workload", len(doc))
		}
	}
}

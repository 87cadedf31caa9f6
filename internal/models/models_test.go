package models

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"magma/internal/layer"
)

func TestRegistryComplete(t *testing.T) {
	// All paper-cited headline models must be present.
	want := []string{
		"ResNet50", "MobileNetV2", "Shufflenet", "VGG16", "SqueezeNet", "GoogLeNet", "MnasNet",
		"GPT2", "BERT", "MobileBert", "TransformerXL", "T5-small", "Electra", "XLM",
		"DLRM", "WideDeep", "NCF", "DIN", "DIEN", "DeepRecSys",
	}
	for _, n := range want {
		if _, err := ByName(n); err != nil {
			t.Errorf("missing model %q: %v", n, err)
		}
	}
	if got := len(Names()); got != len(want) {
		t.Errorf("registry has %d models, want %d (%v)", got, len(want), Names())
	}
}

func TestAllModelsValidate(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("model %s invalid: %v", name, err)
		}
		if m.TotalFLOPs() <= 0 {
			t.Errorf("model %s has non-positive FLOPs", name)
		}
	}
}

func TestPools(t *testing.T) {
	v, l, r := Pool(Vision), Pool(Language), Pool(Recommendation)
	if len(v) != 7 {
		t.Errorf("vision pool = %d models, want 7", len(v))
	}
	if len(l) != 7 {
		t.Errorf("language pool = %d models, want 7", len(l))
	}
	if len(r) != 6 {
		t.Errorf("recom pool = %d models, want 6", len(r))
	}
	if got := len(Pool(Mix)); got != len(v)+len(l)+len(r) {
		t.Errorf("mix pool = %d, want union %d", got, len(v)+len(l)+len(r))
	}
	for _, m := range v {
		if task, _ := TaskOf(m.Name); task != Vision {
			t.Errorf("model %s in vision pool has task %v", m.Name, task)
		}
	}
}

func TestPoolIsSortedAndOwned(t *testing.T) {
	for _, task := range Tasks() {
		a, b := Pool(task), Pool(task)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: two calls returned different pools", task)
		}
		if !slices.IsSortedFunc(a, func(x, y layer.Model) int { return strings.Compare(x.Name, y.Name) }) {
			t.Errorf("%v: pool not sorted by name", task)
		}
		slices.Reverse(a)
		a[0] = layer.Model{Name: "changed"}
		if c := Pool(task); !reflect.DeepEqual(b, c) {
			t.Errorf("%v: changing a returned pool changed the next call's result", task)
		}
	}
	if p := Pool(Mix + 1); p != nil {
		t.Errorf("unknown task pool = %v, want nil", p)
	}
}

func TestTaskRoundTrip(t *testing.T) {
	for _, task := range Tasks() {
		got, err := ParseTask(task.String())
		if err != nil {
			t.Fatalf("ParseTask(%q): %v", task.String(), err)
		}
		if got != task {
			t.Errorf("round-trip %v -> %q -> %v", task, task.String(), got)
		}
	}
	if _, err := ParseTask("bogus"); err == nil {
		t.Error("ParseTask accepted bogus task")
	}
}

func TestResNet50Shape(t *testing.T) {
	m := ResNet50
	// 1 stem + (3+4+6+3)=16 bottlenecks × 3 convs + 4 projections + 1 FC = 54.
	if got, want := len(m.Layers), 1+16*3+4+1; got != want {
		t.Errorf("ResNet50 layer count = %d, want %d", got, want)
	}
	// Published ResNet-50: ~4.1 GMACs = ~8.2 GFLOPs, ~25.5M params. Our
	// conv-only transcription should land in the same ballpark (±25%).
	gflops := float64(m.TotalFLOPs()) / 1e9
	if gflops < 6.5 || gflops > 10 {
		t.Errorf("ResNet50 FLOPs = %.2f GFLOPs, expected ~8.2", gflops)
	}
	params := float64(m.TotalWeights()) / 1e6
	if params < 18 || params > 30 {
		t.Errorf("ResNet50 params = %.1fM, expected ~23M (conv+fc only)", params)
	}
}

func TestVGG16Shape(t *testing.T) {
	m := VGG16
	if got := len(m.Layers); got != 16 {
		t.Errorf("VGG16 layer count = %d, want 16", got)
	}
	// Published: ~30.9 GFLOPs (2 FLOPs/MAC), ~138M params.
	gflops := float64(m.TotalFLOPs()) / 1e9
	if gflops < 25 || gflops > 36 {
		t.Errorf("VGG16 FLOPs = %.2f GFLOPs, expected ~31", gflops)
	}
	params := float64(m.TotalWeights()) / 1e6
	if params < 120 || params > 150 {
		t.Errorf("VGG16 params = %.0fM, expected ~138M", params)
	}
}

func TestMobileNetV2Shape(t *testing.T) {
	// Published MobileNetV2: ~0.6 GFLOPs, ~3.4M params.
	gflops := float64(MobileNetV2.TotalFLOPs()) / 1e9
	if gflops < 0.4 || gflops > 0.9 {
		t.Errorf("MobileNetV2 FLOPs = %.2f GFLOPs, expected ~0.6", gflops)
	}
}

func TestLanguageModelsAreSequenceGEMMs(t *testing.T) {
	for _, m := range Pool(Language) {
		for _, l := range m.Layers {
			if l.Kind != layer.Conv2D || l.X != 1 || l.R != 1 || l.S != 1 {
				t.Errorf("%s/%s: language layers must be sequence GEMMs, got %v", m.Name, l.Name, l)
			}
			if l.Y < 64 {
				t.Errorf("%s/%s: sequence length %d suspiciously small", m.Name, l.Name, l.Y)
			}
		}
	}
}

func TestGPT2Volume(t *testing.T) {
	// GPT-2 small forward pass at L=1024 is ~175 GFLOPs (2·12·L·(12H² + 2LH)/1e9-ish).
	gflops := float64(GPT2.TotalFLOPs()) / 1e9
	if gflops < 100 || gflops > 300 {
		t.Errorf("GPT2 FLOPs = %.1f GFLOPs, expected ~175", gflops)
	}
}

func TestRecommendationModelsAreFCDominated(t *testing.T) {
	for _, m := range Pool(Recommendation) {
		var fcFLOPs, total int64
		for _, l := range m.Layers {
			total += l.FLOPs()
			if l.Kind == layer.FC || (l.X == 1 && l.R == 1 && l.S == 1) {
				fcFLOPs += l.FLOPs()
			}
		}
		if fcFLOPs != total {
			t.Errorf("%s: recommendation models must be GEMM-only", m.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown model")
	}
	if _, err := TaskOf("nope"); err == nil {
		t.Error("TaskOf accepted unknown model")
	}
}

package platform

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"magma/internal/maestro"
)

func TestTableIIISettings(t *testing.T) {
	tests := []struct {
		id        string
		nAccels   int
		homog     bool
		defaultBW float64
	}{
		{"S1", 4, true, 16},
		{"S2", 4, false, 16},
		{"S3", 8, true, 256},
		{"S4", 8, false, 256},
		{"S5", 8, false, 256},
		{"S6", 16, false, 256},
	}
	for _, tt := range tests {
		t.Run(tt.id, func(t *testing.T) {
			p, err := BySetting(tt.id)
			if err != nil {
				t.Fatalf("BySetting(%s): %v", tt.id, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := p.NumAccels(); got != tt.nAccels {
				t.Errorf("NumAccels = %d, want %d", got, tt.nAccels)
			}
			if got := p.Homogeneous(); got != tt.homog {
				t.Errorf("Homogeneous = %v, want %v", got, tt.homog)
			}
			if p.SystemBWGBs != tt.defaultBW {
				t.Errorf("default BW = %g, want %g", p.SystemBWGBs, tt.defaultBW)
			}
			if p.Setting != tt.id {
				t.Errorf("Setting = %q, want %q", p.Setting, tt.id)
			}
		})
	}
	if _, err := BySetting("S9"); err == nil {
		t.Error("BySetting accepted S9")
	}
}

func TestS2HasOneLBCore(t *testing.T) {
	p := S2()
	var lb int
	for _, s := range p.SubAccels {
		if s.Config.Dataflow == maestro.LB {
			lb++
			if s.Config.SGBytes != 110<<10 {
				t.Errorf("S2 LB core SG = %d, want 110KB", s.Config.SGBytes)
			}
		} else if s.Config.SGBytes != 146<<10 {
			t.Errorf("S2 HB core SG = %d, want 146KB", s.Config.SGBytes)
		}
		if s.Config.H != 32 || s.Config.W != 64 {
			t.Errorf("S2 core %d PE array = %dx%d, want 32x64", s.ID, s.Config.H, s.Config.W)
		}
	}
	if lb != 1 {
		t.Errorf("S2 LB cores = %d, want 1", lb)
	}
}

func TestS5BigLittleMix(t *testing.T) {
	p := S5()
	heights := map[int]int{}
	for _, s := range p.SubAccels {
		heights[s.Config.H]++
	}
	if heights[128] != 4 || heights[64] != 4 {
		t.Errorf("S5 heights = %v, want 4x128 + 4x64", heights)
	}
}

func TestWithBW(t *testing.T) {
	p := S1()
	q := p.WithBW(1)
	if q.SystemBWGBs != 1 || p.SystemBWGBs != 16 {
		t.Errorf("WithBW mutated original or failed: p=%g q=%g", p.SystemBWGBs, q.SystemBWGBs)
	}
	q.SubAccels[0].Name = "mutated"
	if p.SubAccels[0].Name == "mutated" {
		t.Error("WithBW shares sub-accel slice with original")
	}
}

func TestWithFlexible(t *testing.T) {
	p := S1()
	q := p.WithFlexible()
	for i, s := range q.SubAccels {
		if !s.Config.Flexible {
			t.Errorf("flex core %d not flexible", i)
		}
		if s.Config.SGBytes != 2<<20 || s.Config.SLBytes != 1<<10 {
			t.Errorf("flex core %d buffers = SG %d SL %d, want 2MB/1KB", i, s.Config.SGBytes, s.Config.SLBytes)
		}
	}
	if p.SubAccels[0].Config.Flexible {
		t.Error("WithFlexible mutated original")
	}
	if !strings.HasSuffix(q.Name, "-flex") {
		t.Errorf("flex name = %q", q.Name)
	}
}

func TestSystemBWBytesPerCycle(t *testing.T) {
	p := S1() // 16 GB/s at 200 MHz -> 80 B/cycle
	if got := p.SystemBWBytesPerCycle(); got != 80 {
		t.Errorf("SystemBWBytesPerCycle = %g, want 80", got)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (Platform{Name: "empty", SystemBWGBs: 1}).Validate(); err == nil {
		t.Error("empty platform accepted")
	}
	p := S1()
	p.SystemBWGBs = 0
	if err := p.Validate(); err == nil {
		t.Error("zero-BW platform accepted")
	}
	p = S1()
	p.SubAccels[2].ID = 7
	if err := p.Validate(); err == nil {
		t.Error("misnumbered sub-accel accepted")
	}
	p = S1()
	p.SubAccels[0].Config.H = 0
	if err := p.Validate(); err == nil {
		t.Error("invalid sub-accel config accepted")
	}
}

func TestStringContainsCores(t *testing.T) {
	s := S2().String()
	if !strings.Contains(s, "HB-32") || !strings.Contains(s, "LB-32") {
		t.Errorf("S2 string missing cores: %q", s)
	}
}

func TestBWSweeps(t *testing.T) {
	if got := SmallBWSweep(); len(got) != 4 || got[len(got)-1] != 16 {
		t.Errorf("SmallBWSweep = %v", got)
	}
	if got := LargeBWSweep(); len(got) != 4 || got[len(got)-1] != 256 {
		t.Errorf("LargeBWSweep = %v", got)
	}
	if got := Settings(); len(got) != 6 {
		t.Errorf("Settings = %v", got)
	}
}

// Regression: Homogeneous used to panic on an empty SubAccels slice
// (p.SubAccels[1:] on zero length). Such a platform fails Validate, but
// probing it must not blow up.
func TestHomogeneousEmptyPlatform(t *testing.T) {
	var p Platform
	if !p.Homogeneous() {
		t.Error("empty platform should be vacuously homogeneous")
	}
	if p.Validate() == nil {
		t.Error("empty platform must still fail Validate")
	}
	single := Platform{SubAccels: S1().SubAccels[:1], SystemBWGBs: 16}
	if !single.Homogeneous() {
		t.Error("single-core platform should be homogeneous")
	}
}

// TestPresetNames pins every Table III preset's sub-accelerator names,
// "<dataflow>-<PE-array height>" in core order.
func TestPresetNames(t *testing.T) {
	want := map[string]string{
		"S1": "HB-32 HB-32 HB-32 HB-32",
		"S2": "HB-32 HB-32 HB-32 LB-32",
		"S3": "HB-128 HB-128 HB-128 HB-128 HB-128 HB-128 HB-128 HB-128",
		"S4": "HB-128 HB-128 HB-128 HB-128 HB-128 HB-128 HB-128 LB-128",
		"S5": "HB-128 HB-128 HB-128 LB-128 HB-64 HB-64 HB-64 LB-64",
		"S6": "HB-128 HB-128 HB-128 HB-128 HB-128 HB-128 HB-128 LB-128 " +
			"HB-64 HB-64 HB-64 HB-64 HB-64 HB-64 HB-64 LB-64",
	}
	for _, id := range Settings() {
		p, err := BySetting(id)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range p.SubAccels {
			got = append(got, s.Name)
		}
		if g := strings.Join(got, " "); g != want[id] {
			t.Errorf("%s names = %q, want %q", id, g, want[id])
		}
	}
}

// TestPresetsAreCopies: the presets are built once, so a caller that
// edits a returned preset's cores must not change what the next call
// returns, through the constructor or BySetting.
func TestPresetsAreCopies(t *testing.T) {
	ctors := map[string]func() Platform{"S1": S1, "S2": S2, "S3": S3, "S4": S4, "S5": S5, "S6": S6}
	for _, id := range Settings() {
		bySetting := func() Platform {
			p, err := BySetting(id)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		for _, get := range []func() Platform{ctors[id], bySetting} {
			edited := get()
			want := edited
			want.SubAccels = slices.Clone(edited.SubAccels)
			for i := range edited.SubAccels {
				edited.SubAccels[i].Name = "edited"
				edited.SubAccels[i].Config.H = 1
			}
			if got := get(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s changed after a caller edited a returned copy: %+v", id, got)
			}
		}
	}
}

// Package platform describes multi-core accelerators: collections of
// sub-accelerator cores sharing one system bandwidth (§II-B, Fig. 1).
// The six test-bed configurations of Table III (S1–S6) are provided as
// constructors, along with the flexible-PE-array variants of §VI-F.
package platform

import (
	"fmt"
	"strconv"
	"strings"

	"magma/internal/maestro"
)

// ClockHz is the accelerator clock of the evaluation (§VI-A3: 200 MHz).
const ClockHz = 200e6

// BytesPerElem is the operand width (§VI-A3: 1 byte).
const BytesPerElem = 1

// Width is the fixed PE-array width; the paper sets one dimension to 64
// to align with the 64-multiple tensor shapes of popular models.
const Width = 64

// SubAccel is one accelerator core.
type SubAccel struct {
	ID     int
	Name   string // e.g. "HB-128"
	Config maestro.Config
}

// Platform is a multi-core accelerator plus its shared system bandwidth
// (the min of host-link and memory bandwidth, §IV-C).
type Platform struct {
	Name        string
	Setting     string // paper setting id: S1..S6 (empty for custom)
	SubAccels   []SubAccel
	SystemBWGBs float64 // shared system bandwidth in GB/s
}

// Validate reports configuration errors.
func (p Platform) Validate() error {
	if len(p.SubAccels) == 0 {
		return fmt.Errorf("platform %q: no sub-accelerators", p.Name)
	}
	if p.SystemBWGBs <= 0 {
		return fmt.Errorf("platform %q: non-positive system BW %f", p.Name, p.SystemBWGBs)
	}
	for i, s := range p.SubAccels {
		if s.ID != i {
			return fmt.Errorf("platform %q: sub-accel %d has ID %d", p.Name, i, s.ID)
		}
		if err := s.Config.Validate(); err != nil {
			return fmt.Errorf("platform %q sub-accel %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// NumAccels returns the number of sub-accelerator cores.
func (p Platform) NumAccels() int { return len(p.SubAccels) }

// SystemBWBytesPerCycle converts the system bandwidth into the
// bytes-per-cycle unit used by the BW allocator.
func (p Platform) SystemBWBytesPerCycle() float64 {
	return p.SystemBWGBs * 1e9 / ClockHz
}

// Homogeneous reports whether all sub-accelerators share one
// configuration. A platform with no sub-accelerators is vacuously
// homogeneous (it used to panic on the SubAccels[1:] slice; such a
// platform fails Validate, but Homogeneous must not blow up on it).
func (p Platform) Homogeneous() bool {
	if len(p.SubAccels) == 0 {
		return true
	}
	for _, s := range p.SubAccels[1:] {
		if s.Config != p.SubAccels[0].Config {
			return false
		}
	}
	return true
}

// WithBW returns a copy of the platform at a different system bandwidth.
func (p Platform) WithBW(gbs float64) Platform {
	q := p.clone()
	q.SystemBWGBs = gbs
	return q
}

// clone returns a copy with its own SubAccels. A SubAccel holds only
// values, so the copy is deep.
func (p Platform) clone() Platform {
	p.SubAccels = append([]SubAccel(nil), p.SubAccels...)
	return p
}

// WithFlexible returns a copy whose sub-accelerators use the §VI-F
// flexible PE-array shape search. Per the paper's flexible setting,
// each PE holds a 1 KB SL and each sub-accelerator a 2 MB SG.
func (p Platform) WithFlexible() Platform {
	q := p.clone()
	q.Name = p.Name + "-flex"
	for i := range q.SubAccels {
		q.SubAccels[i].Config.Flexible = true
		q.SubAccels[i].Config.SLBytes = 1 << 10
		q.SubAccels[i].Config.SGBytes = 2 << 20
	}
	return q
}

// String summarizes the platform in Table III style.
func (p Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d sub-accels, BW=%g GB/s):", p.Name, len(p.SubAccels), p.SystemBWGBs)
	for _, s := range p.SubAccels {
		fmt.Fprintf(&b, " %s", s.Name)
	}
	return b.String()
}

// sub builds one sub-accelerator with PE-array height h and the given
// dataflow and SG buffer size (KB), named "<dataflow>-<h>" (e.g. "HB-128").
func sub(id, h int, df maestro.Dataflow, sgKB int) SubAccel {
	return SubAccel{
		ID:   id,
		Name: df.String() + "-" + strconv.Itoa(h),
		Config: maestro.Config{
			H: h, W: Width,
			SGBytes:  int64(sgKB) << 10,
			SLBytes:  1 << 10,
			Dataflow: df,
		},
	}
}

func build(name, setting string, bw float64, specs []struct {
	n, h int
	df   maestro.Dataflow
	sgKB int
}) Platform {
	p := Platform{Name: name, Setting: setting, SystemBWGBs: bw}
	id := 0
	for _, sp := range specs {
		for i := 0; i < sp.n; i++ {
			p.SubAccels = append(p.SubAccels, sub(id, sp.h, sp.df, sp.sgKB))
			id++
		}
	}
	return p
}

type spec = struct {
	n, h int
	df   maestro.Dataflow
	sgKB int
}

// presets holds the Table III platforms S1–S6, built once. Every
// accessor hands out a clone, so no caller can alter what the next one
// receives.
var presets = [...]Platform{
	build("S1-SmallHomog", "S1", 16, []spec{{4, 32, maestro.HB, 146}}),
	build("S2-SmallHetero", "S2", 16, []spec{
		{3, 32, maestro.HB, 146}, {1, 32, maestro.LB, 110},
	}),
	build("S3-LargeHomog", "S3", 256, []spec{{8, 128, maestro.HB, 580}}),
	build("S4-LargeHetero", "S4", 256, []spec{
		{7, 128, maestro.HB, 580}, {1, 128, maestro.LB, 434},
	}),
	build("S5-BigLittle", "S5", 256, []spec{
		{3, 128, maestro.HB, 580}, {1, 128, maestro.LB, 434},
		{3, 64, maestro.HB, 291}, {1, 64, maestro.LB, 218},
	}),
	build("S6-ScaleUp", "S6", 256, []spec{
		{7, 128, maestro.HB, 580}, {1, 128, maestro.LB, 434},
		{7, 64, maestro.HB, 291}, {1, 64, maestro.LB, 218},
	}),
}

// S1 is Table III "Small Homog": 4× (32, HB, 146KB). Default BW 16 GB/s.
func S1() Platform { return presets[0].clone() }

// S2 is Table III "Small Hetero": 3× (32, HB, 146KB) + 1× (32, LB, 110KB).
func S2() Platform { return presets[1].clone() }

// S3 is Table III "Large Homog": 8× (128, HB, 580KB). Default BW 256 GB/s.
func S3() Platform { return presets[2].clone() }

// S4 is Table III "Large Hetero": 7× (128, HB, 580KB) + 1× (128, LB, 434KB).
func S4() Platform { return presets[3].clone() }

// S5 is Table III "Large Hetero BigLittle": 3× (128,HB,580) + 1× (128,LB,434)
// + 3× (64,HB,291) + 1× (64,LB,218).
func S5() Platform { return presets[4].clone() }

// S6 is Table III "Large Scale-up": 7× (128,HB,580) + 1× (128,LB,434)
// + 7× (64,HB,291) + 1× (64,LB,218) — 16 cores.
func S6() Platform { return presets[5].clone() }

// BySetting returns the Table III platform with the given id ("S1".."S6").
func BySetting(id string) (Platform, error) {
	switch strings.ToUpper(id) {
	case "S1":
		return S1(), nil
	case "S2":
		return S2(), nil
	case "S3":
		return S3(), nil
	case "S4":
		return S4(), nil
	case "S5":
		return S5(), nil
	case "S6":
		return S6(), nil
	}
	return Platform{}, fmt.Errorf("platform: unknown setting %q", id)
}

// Settings lists the Table III setting ids in order.
func Settings() []string { return []string{"S1", "S2", "S3", "S4", "S5", "S6"} }

// SmallBWSweep is the small-accelerator bandwidth range (§VI-A3):
// DDR1–DDR4 / PCIe1–3.
func SmallBWSweep() []float64 { return []float64{1, 4, 8, 16} }

// LargeBWSweep is the large-accelerator bandwidth range (§VI-A3):
// DDR4–DDR5, HBM, PCIe3–6.
func LargeBWSweep() []float64 { return []float64{1, 16, 64, 256} }

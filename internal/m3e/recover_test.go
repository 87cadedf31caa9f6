package m3e

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"magma/internal/encoding"
	"magma/internal/fault"
	"magma/internal/models"
	"magma/internal/platform"
	"magma/internal/rng"
)

// panickyOpt wraps stubOpt and panics in a chosen callback at a chosen
// generation.
type panickyOpt struct {
	stubOpt
	panicIn  string // "Init" | "Ask" | "Tell"
	atGen    int    // 1-based generation to blow up in (Ask/Tell)
	gen      int
	abortErr error // when set, AbortRun instead of a raw panic
}

func (p *panickyOpt) Name() string { return "panicky" }

func (p *panickyOpt) Init(prob *Problem, r *rng.Stream) error {
	if p.panicIn == "Init" {
		panic("init blew up")
	}
	return p.stubOpt.Init(prob, r)
}

func (p *panickyOpt) Ask() []encoding.Genome {
	if p.panicIn == "Ask" {
		p.gen++
		if p.gen >= p.atGen {
			if p.abortErr != nil {
				AbortRun(p.abortErr)
			}
			panic(fmt.Sprintf("ask blew up at generation %d", p.gen))
		}
	}
	return p.stubOpt.Ask()
}

func (p *panickyOpt) Tell(gs []encoding.Genome, fit []float64) {
	if p.panicIn == "Tell" {
		p.gen++
		if p.gen >= p.atGen {
			panic("tell blew up")
		}
	}
	p.stubOpt.Tell(gs, fit)
}

func TestPanicInInitBecomesMapperPanicError(t *testing.T) {
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	_, err := Run(prob, &panickyOpt{panicIn: "Init"}, Options{Budget: 10}, 1)
	var mpe *MapperPanicError
	if !errors.As(err, &mpe) {
		t.Fatalf("Init panic surfaced as %v, want *MapperPanicError", err)
	}
	if mpe.Mapper != "panicky" || mpe.Op != "Init" {
		t.Errorf("error names %s/%s, want panicky/Init", mpe.Mapper, mpe.Op)
	}
	if !bytes.Contains(mpe.Stack, []byte("panickyOpt")) {
		t.Error("stack does not reach the panic site")
	}
}

// TestPanicMidRunKeepsPartialResult panics in the third generation,
// once in the mapper's Ask and once in the simulator while the runner
// evaluates the batch: either way the run fails with a MapperPanicError
// naming the callback, its stack reaches the panic site, and the partial
// result holds the two completed generations.
func TestPanicMidRunKeepsPartialResult(t *testing.T) {
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	for _, tc := range []struct {
		op    string
		opt   Optimizer
		frame string
	}{
		{"Ask", &panickyOpt{stubOpt: stubOpt{batch: 5}, panicIn: "Ask", atGen: 3}, "panickyOpt"},
		{"Evaluate", &stubOpt{batch: 5}, "EvaluateMapping"},
	} {
		t.Run(tc.op, func(t *testing.T) {
			fault.Reset()
			defer fault.Reset()
			if tc.op == "Evaluate" {
				sims := 0
				fault.Enable(fault.M3ESimulate, func() error {
					if sims++; sims > 10 {
						panic("simulator blew up")
					}
					return nil
				})
			}
			res, err := Run(prob, tc.opt, Options{Budget: 100}, 1)
			var mpe *MapperPanicError
			if !errors.As(err, &mpe) {
				t.Fatalf("mid-run panic surfaced as %v, want *MapperPanicError", err)
			}
			if mpe.Op != tc.op {
				t.Errorf("op = %s, want %s", mpe.Op, tc.op)
			}
			if !bytes.Contains(mpe.Stack, []byte(tc.frame)) {
				t.Errorf("stack does not reach the panic site %s", tc.frame)
			}
			// Two generations completed before the blow-up; the partial
			// result holds their best-so-far state.
			if res.Samples != 10 {
				t.Errorf("partial result has %d samples, want 10", res.Samples)
			}
			if math.IsInf(res.BestFitness, -1) {
				t.Error("partial result lost its best fitness")
			}
		})
	}
}

func TestPanicInTellBecomesMapperPanicError(t *testing.T) {
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	_, err := Run(prob, &panickyOpt{stubOpt: stubOpt{batch: 5}, panicIn: "Tell", atGen: 1}, Options{Budget: 20}, 1)
	var mpe *MapperPanicError
	if !errors.As(err, &mpe) || mpe.Op != "Tell" {
		t.Fatalf("Tell panic surfaced as %v, want *MapperPanicError in Tell", err)
	}
}

func TestAbortRunUnwrapsToPlainError(t *testing.T) {
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	sentinel := errors.New("impossible state")
	_, err := Run(prob, &panickyOpt{stubOpt: stubOpt{batch: 5}, panicIn: "Ask", atGen: 2, abortErr: sentinel}, Options{Budget: 20}, 1)
	if !errors.Is(err, sentinel) {
		t.Fatalf("AbortRun error = %v, want wrap of sentinel", err)
	}
	var mpe *MapperPanicError
	if errors.As(err, &mpe) {
		t.Fatal("AbortRun must not be reported as a mapper panic")
	}
}

// TestRunAfterPanicIsBitIdentical pins the isolation contract: a
// panicked run must not perturb a subsequent clean run — same problem,
// same seed, same result as if the panic never happened.
func TestRunAfterPanicIsBitIdentical(t *testing.T) {
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	want, err := Run(prob, &stubOpt{batch: 5}, Options{Budget: 30}, 7)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	if _, err := Run(prob, &panickyOpt{stubOpt: stubOpt{batch: 5}, panicIn: "Ask", atGen: 2}, Options{Budget: 30}, 7); err == nil {
		t.Fatal("panicky run unexpectedly succeeded")
	}

	got, err := Run(prob, &stubOpt{batch: 5}, Options{Budget: 30}, 7)
	if err != nil {
		t.Fatalf("follow-up run: %v", err)
	}
	if got.BestFitness != want.BestFitness || !reflect.DeepEqual(got.Curve, want.Curve) {
		t.Error("run after a panicked run diverged from the baseline")
	}
}

// TestFaultInjectedAskPanicAtGeneration drives the fault harness the
// way the chaos bench does: a registry hook that panics at a chosen
// generation, recovered into a MapperPanicError.
func TestFaultInjectedAskPanicAtGeneration(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	fault.Enable(fault.M3EAsk, fault.Every(3, func() error {
		panic("injected mapper panic")
	}))
	prob := testProblem(t, models.Vision, 12, platform.S1(), Throughput)
	res, err := Run(prob, &stubOpt{batch: 5}, Options{Budget: 100}, 1)
	var mpe *MapperPanicError
	if !errors.As(err, &mpe) {
		t.Fatalf("injected panic surfaced as %v, want *MapperPanicError", err)
	}
	if res.Phases.Generations != 2 {
		t.Errorf("completed %d generations before the injected panic, want 2", res.Phases.Generations)
	}
}

package m3e

import (
	"fmt"
	"runtime/debug"
)

// MapperPanicError reports a panic that escaped an optimizer (mapper)
// callback — Init, Ask, Tell, or an evaluation it drove. The run loop
// converts such panics into this error at the Run boundary so one
// misbehaving mapper (including third-party registry mappers) fails its
// own run instead of killing the process; the run's evaluator goes with
// it and the engine holds nothing the run was writing, so subsequent
// runs on the same problem are unaffected.
type MapperPanicError struct {
	Mapper string // optimizer name (Optimizer.Name)
	Op     string // callback that panicked: "Init" | "Ask" | "Evaluate" | "Tell"
	Value  any    // the recovered panic value
	Stack  []byte // goroutine stack captured at the panic site
}

func (e *MapperPanicError) Error() string {
	return fmt.Sprintf("m3e: mapper %s panicked in %s: %v", e.Mapper, e.Op, e.Value)
}

// runAbort is the typed panic AbortRun throws. It is the in-band escape
// hatch for optimizer internals: guard unwraps it back into a plain
// error (no stack, not a MapperPanicError), so deep "cannot happen"
// states surface as run failures rather than process crashes.
type runAbort struct{ err error }

// AbortRun aborts the enclosing m3e.Run with err by panicking with a
// typed value the run loop recognizes. Optimizers call it from internal
// helpers where threading an error return through every layer is not
// worth it (invariant violations, impossible states); the enclosing Run
// returns err instead of crashing. Calling it outside a Run (no guard
// on the stack) panics normally — which is what a violated invariant in
// un-guarded code deserves.
func AbortRun(err error) {
	if err == nil {
		err = fmt.Errorf("m3e: run aborted")
	}
	panic(runAbort{err: err})
}

// guard runs one mapper callback, converting panics into errors: a
// runAbort (from AbortRun) becomes its wrapped error; anything else
// becomes a *MapperPanicError carrying the mapper name, the callback
// name and the stack captured at the panic site. A plain error return
// passes through untouched.
func guard(mapper, op string, f func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if a, ok := r.(runAbort); ok {
			err = fmt.Errorf("m3e: %s %s: %w", mapper, op, a.err)
			return
		}
		err = &MapperPanicError{Mapper: mapper, Op: op, Value: r, Stack: debug.Stack()}
	}()
	return f()
}

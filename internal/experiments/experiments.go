// Package experiments defines the paper's evaluation (§VI) as scenarios on
// the declarative sweep engine (internal/scenario): Fig. 8 (djpeg
// execution-time overhead), Fig. 9 (cache miss rates), Fig. 10a/b
// (microbenchmark slowdowns vs. nesting depth, SeMPE vs. FaCT-style CTE),
// Table I (approach comparison), Table II (the baseline configuration
// echo), and the leakmatrix security sweep (the side-channel distinguisher
// over every kernel and nesting depth).
//
// Each scenario registers itself into the scenario registry at init time;
// cmd/sempe-bench and cmd/sempe-serve resolve them by name, so the cmd
// layer never grows per-figure code. Each typed spec (Fig10Spec, Fig8Spec,
// ...) has one plan method holding its range checks; the registry parses a
// spec's strings into the typed spec and plans it. Every caller, Go
// programs included, runs a sweep the same way: look the scenario up and
// call scenario.Run with a scenario.Spec (Params for the grid, Workers for
// the fan-out); Result.Rows holds the typed rows (Fig10Row, Fig8Row, ...).
package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

// Run executes a compiled program on a core and returns it. The core comes
// from the configuration's pool (pipeline.PoolFor); callers that finish
// reading its state should return it with releaseCore (dropping it is safe,
// just unpooled). Pooled spin-up is a Reset — cycle- and event-identical to
// a fresh construction (pipeline's TestCoreResetDifferential) — so sweep
// workers pay core construction once per configuration, not once per grid
// point.
func Run(cfg pipeline.Config, prog *isa.Program) (*pipeline.Core, error) {
	core := pipeline.PoolFor(cfg).NewCoreFor(prog)
	if err := core.Run(); err != nil {
		return nil, err
	}
	return core, nil
}

// releaseCore returns a core obtained from Run/mustRun to its
// configuration's pool. The caller must have copied out every field it
// needs; the core must not be used afterwards.
func releaseCore(cfg pipeline.Config, core *pipeline.Core) {
	if core != nil {
		pipeline.PoolFor(cfg).Recycle(core)
	}
}

func mustRun(cfg pipeline.Config, p *lang.Program, mode compile.Mode) (*pipeline.Core, error) {
	out, err := compile.Compile(p, mode)
	if err != nil {
		return nil, err
	}
	return Run(cfg, out.Prog)
}

// decodeRowAs is the row codec every sweep installs as DecodeRow: it
// inverts json.Marshal on the sweep's typed row, which is what lets the
// on-disk store rehydrate rows an earlier run computed. Row types used
// here must round-trip exactly (primitive
// fields only; float64 survives encoding/json bit-for-bit).
func decodeRowAs[T any](raw json.RawMessage) (any, error) {
	var row T
	if err := json.Unmarshal(raw, &row); err != nil {
		return nil, err
	}
	return row, nil
}

// ------------------------------------------------- spec parameter plumbing

// Limits on the parameters that size a point's work, beside the ones the
// cmd tools share (workloads.MaxIters, jpegsim.MaxBlocks). Each sits well
// above every default, documented example and benchmark value, so it only
// turns away specs that would hold a worker for hours or exhaust memory:
// cancellation acts between grid points, and an allocation past the
// address space is a fatal error no guard can catch.
const (
	// maxSecrets bounds the leak matrix's secret family per point.
	maxSecrets = 16
)

// planner is a typed spec: plan checks every parameter's range and
// returns the sweep's plan over the spec.
type planner interface {
	plan() (*scenario.Plan, error)
}

// planOf makes a Sweep.Plan from a registry parser: parse the spec's
// strings into the typed spec once, then plan it.
func planOf[T planner](parse func(scenario.Spec) (T, error)) func(scenario.Spec) (*scenario.Plan, error) {
	return func(spec scenario.Spec) (*scenario.Plan, error) {
		f, err := parse(spec)
		if err != nil {
			return nil, err
		}
		return planBounded(f)
	}
}

// planBounded plans a typed spec and rejects a grid past
// scenario.MaxPoints: list parameters multiply, so three lists of 1000
// values would ask the engine for a 128 GB grid.
func planBounded(f planner) (*scenario.Plan, error) {
	p, err := f.plan()
	if err != nil {
		return nil, err
	}
	if err := inRange("grid", 0, scenario.MaxPoints, scenario.GridSize(p.Axes)); err != nil {
		return nil, err
	}
	return p, nil
}

// narrow converts the engine's rows to the sweep's row type.
func narrow[T any](rows []any) []T {
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = r.(T)
	}
	return out
}

// mapSlice applies f to every element, as when rendering an axis's values.
func mapSlice[T, U any](vs []T, f func(T) U) []U {
	out := make([]U, len(vs))
	for i, v := range vs {
		out[i] = f(v)
	}
	return out
}

// checkParams rejects unknown parameter keys so a typo ("kind" for
// "kinds") fails loudly instead of silently running the default grid.
func checkParams(spec scenario.Spec, known ...string) error {
	for k := range spec.Params {
		if !slices.Contains(known, k) {
			return fmt.Errorf("unknown parameter %q (have %s)", k, strings.Join(known, ", "))
		}
	}
	return nil
}

// param parses the spec's value for key into *dst, when it is set, naming
// the key in the error.
func param[T any](spec scenario.Spec, key string, dst *T, parse func(string) (T, error)) error {
	v, ok := spec.Params[key]
	if !ok {
		return nil
	}
	x, err := parse(v)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	*dst = x
	return nil
}

// firstErr returns the first non-nil error, so a spec with several bad
// parameters always reports the same one.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// inRange rejects any value outside [lo,hi] as "<param>: <value> out of
// range [lo,hi]", the form attack.Params uses.
func inRange(param string, lo, hi int, vs ...int) error {
	for _, v := range vs {
		if v < lo || v > hi {
			return fmt.Errorf("%s: %d out of range [%d,%d]", param, v, lo, hi)
		}
	}
	return nil
}

// listOf lifts a value parser to a comma-separated list; the empty string
// is an empty list, never nil, so an emptied axis still encodes as [].
func listOf[T any](parse func(string) (T, error)) func(string) ([]T, error) {
	return func(s string) ([]T, error) {
		out := []T{}
		if s == "" {
			return out, nil
		}
		for _, f := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(f))
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
}

func atoi(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return v, nil
}

func atoi64(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return v, nil
}

func atou(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad unsigned integer %q", s)
	}
	return v, nil
}

func ident(s string) (string, error) { return s, nil }

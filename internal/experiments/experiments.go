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
// layer never grows per-figure code. The typed entry points (Fig10, Fig8)
// run through the same engine sweeps as the registry path and are kept for
// Go callers: tests, benchmarks, and the examples.
package experiments

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// protoPools recycles cores per configuration for the point functions,
// which harvest their row fields from the finished core and hand it back
// via releaseCore. Pooled spin-up is a Reset — cycle- and event-identical
// to a fresh construction (pipeline's TestCoreResetDifferential) — so
// sweep workers pay core construction once per configuration, not once per
// grid point.
var protoPools sync.Map // pipeline.Config -> *pipeline.Prototype

func protoFor(cfg pipeline.Config) *pipeline.Prototype {
	pi, _ := protoPools.LoadOrStore(cfg, pipeline.NewPrototype(cfg, nil))
	return pi.(*pipeline.Prototype)
}

// Run executes a compiled program on a core and returns it. The core comes
// from the per-configuration pool; callers that finish reading its state
// should return it with releaseCore (dropping it is safe, just unpooled).
func Run(cfg pipeline.Config, prog *isa.Program) (*pipeline.Core, error) {
	core := protoFor(cfg).NewCoreFor(prog)
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
		protoFor(cfg).Recycle(core)
	}
}

func mustRun(cfg pipeline.Config, p *lang.Program, mode compile.Mode) (*pipeline.Core, error) {
	out, err := compile.Compile(p, mode)
	if err != nil {
		return nil, err
	}
	return Run(cfg, out.Prog)
}

// decodeRowAs is the row codec shardable sweeps install as DecodeRow: it
// inverts json.Marshal on the sweep's typed row, which is what lets the
// cluster coordinator and the on-disk store rehydrate rows computed
// elsewhere. Row types used here must round-trip exactly (primitive
// fields only; float64 survives encoding/json bit-for-bit).
func decodeRowAs[T any](raw json.RawMessage) (any, error) {
	var row T
	if err := json.Unmarshal(raw, &row); err != nil {
		return nil, err
	}
	return row, nil
}

// ------------------------------------------------- spec parameter plumbing

// checkParams rejects unknown parameter keys so a typo ("kind" for
// "kinds") fails loudly instead of silently running the default grid.
func checkParams(spec scenario.Spec, known ...string) error {
	for k := range spec.Params {
		ok := false
		for _, want := range known {
			if k == want {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("unknown parameter %q (have %s)", k, strings.Join(known, ", "))
		}
	}
	return nil
}

// splitCSV splits a comma-separated parameter; the empty string is an
// empty list.
func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// positive rejects a value below 1 for param, naming both: a harness of
// width 0 panics and a run of no iterations measures nothing.
func positive(param string, vs ...int) error {
	for _, v := range vs {
		if v < 1 {
			return fmt.Errorf("%s: %d is not positive", param, v)
		}
	}
	return nil
}

// atMost rejects a value above limit for param, naming both: past the
// nesting limit every point fails anyway, after building a harness that
// large, and attack trial and noise counts size allocations.
func atMost(param string, limit int, vs ...int) error {
	for _, v := range vs {
		if v > limit {
			return fmt.Errorf("%s: %d exceeds the limit %d", param, v, limit)
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitCSV(s) {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range splitCSV(s) {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad unsigned integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseKinds(s string) ([]workloads.Kind, error) {
	var out []workloads.Kind
	for _, f := range splitCSV(s) {
		k, err := workloads.Parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

func kindNames(kinds []workloads.Kind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

func intsCSV(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func uintsCSV(vs []uint64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(v, 10)
	}
	return strings.Join(parts, ",")
}

package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/leak"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// LeakRow is one (kernel, W) cell of the leak-distinguisher matrix: which
// observable channels tell a family of secrets apart on the unprotected
// baseline versus under SeMPE. A correct implementation leaks on the
// baseline (the side channel the paper sets out to close exists) and on no
// channel under SeMPE.
type LeakRow struct {
	Kind     workloads.Kind
	W        int
	Secrets  []uint64
	Baseline []leak.Channel
	SeMPE    []leak.Channel
}

// Secure reports whether SeMPE closed every channel for this cell.
func (r LeakRow) Secure() bool { return len(r.SeMPE) == 0 }

// LeakMatrixSpec parameterizes the security sweep.
type LeakMatrixSpec struct {
	Kinds   []workloads.Kind
	Ws      []int
	Iters   int
	Secrets []uint64 // per point, the all-paths secret (1<<W)-1 is appended
}

// DefaultLeakMatrixSpec sweeps every kernel over the W axis endpoints and
// midpoint — the grid the security regression tests pin down.
func DefaultLeakMatrixSpec() LeakMatrixSpec {
	return LeakMatrixSpec{
		Kinds:   workloads.All(),
		Ws:      []int{1, 4, 10},
		Iters:   2,
		Secrets: []uint64{0, 1, 3},
	}
}

func leakSpecOf(spec scenario.Spec) (LeakMatrixSpec, error) {
	f := DefaultLeakMatrixSpec()
	if spec.Quick {
		f.Ws = []int{1, 4}
	}
	return f, firstErr(
		checkParams(spec, "kinds", "ws", "iters", "secrets"),
		param(spec, "kinds", &f.Kinds, listOf(workloads.Parse)),
		param(spec, "ws", &f.Ws, listOf(atoi)),
		param(spec, "iters", &f.Iters, atoi),
		param(spec, "secrets", &f.Secrets, listOf(atou)),
	)
}

// plan bounds the secret family by its size; the secrets themselves are
// any 64-bit values.
func (f LeakMatrixSpec) plan() (*scenario.Plan, error) {
	if err := firstErr(
		inRange("ws", 1, compile.MaxSecretNesting, f.Ws...),
		inRange("iters", 1, workloads.MaxIters, f.Iters),
		inRange("secrets", 1, maxSecrets, len(f.Secrets)),
	); err != nil {
		return nil, err
	}
	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "workload", Values: mapSlice(f.Kinds, workloads.Kind.String)},
			{Name: "W", Values: mapSlice(f.Ws, strconv.Itoa)},
		},
		Point: func(p scenario.Point) (any, error) {
			return leakPoint(f, f.Kinds[p.Coords[0]], f.Ws[p.Coords[1]])
		},
	}, nil
}

var leakSweep = &scenario.Sweep{
	ID:        "leakmatrix",
	Plan:      planOf(leakSpecOf),
	DecodeRow: decodeRowAs[LeakRow],
}

// leakPoint runs the distinguisher for one (kernel, W) cell: the same
// family of secrets on the unprotected baseline (Plain binary, default
// core) and under SeMPE (sJMP binary, secure core).
func leakPoint(spec LeakMatrixSpec, kind workloads.Kind, w int) (LeakRow, error) {
	// The spec's secret family, plus the all-paths-taken secret for this
	// depth; secrets beyond one iteration's W bits fold onto earlier paths,
	// which is harmless (the distinguisher unions over all pairs).
	secrets := append([]uint64(nil), spec.Secrets...)
	all := uint64(1)<<uint(w) - 1
	dup := false
	for _, s := range secrets {
		if s == all {
			dup = true
		}
	}
	if !dup {
		secrets = append(secrets, all)
	}
	build := func(mode compile.Mode) func(uint64) (*isa.Program, error) {
		return func(secret uint64) (*isa.Program, error) {
			hs := workloads.HarnessSpec{Kind: kind, W: w, I: spec.Iters, Secret: secret}
			out, err := compile.Compile(workloads.Harness(hs), mode)
			if err != nil {
				return nil, err
			}
			return out.Prog, nil
		}
	}
	base, err := leak.DistinguishMany(pipeline.DefaultConfig(), build(compile.Plain), secrets)
	if err != nil {
		return LeakRow{}, fmt.Errorf("leakmatrix %v W=%d baseline: %w", kind, w, err)
	}
	sec, err := leak.DistinguishMany(pipeline.SecureConfig(), build(compile.SeMPE), secrets)
	if err != nil {
		return LeakRow{}, fmt.Errorf("leakmatrix %v W=%d sempe: %w", kind, w, err)
	}
	return LeakRow{
		Kind:     kind,
		W:        w,
		Secrets:  secrets,
		Baseline: base.Leaking,
		SeMPE:    sec.Leaking,
	}, nil
}

// RenderLeakMatrix renders the distinguisher matrix.
func RenderLeakMatrix(rows []LeakRow) *stats.Table {
	t := &stats.Table{
		Title:  "Leak matrix: observable channels distinguishing secrets, baseline vs. SeMPE",
		Header: []string{"workload", "W", "secrets", "baseline leaks", "SeMPE leaks", "verdict"},
	}
	for _, r := range rows {
		verdict := "SECURE"
		if !r.Secure() {
			verdict = "LEAK"
		}
		secrets := mapSlice(r.Secrets, func(s uint64) string { return strconv.FormatUint(s, 10) })
		t.AddRow(r.Kind.String(), fmt.Sprintf("%d", r.W),
			strings.Join(secrets, ","), channelList(r.Baseline), channelList(r.SeMPE), verdict)
	}
	t.AddNote("channels compared: %s", channelList(leak.AllChannels()))
	t.AddNote("expected: the unprotected baseline leaks on at least the pc-trace channel; SeMPE leaks on none")
	return t
}

func channelList(chs []leak.Channel) string {
	if len(chs) == 0 {
		return "none"
	}
	parts := make([]string, len(chs))
	for i, ch := range chs {
		parts[i] = string(ch)
	}
	return strings.Join(parts, " ")
}

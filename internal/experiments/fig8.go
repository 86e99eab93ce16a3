package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/jpegsim"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Fig8Row is one (format, size) cell of Fig. 8, carrying the Fig. 9 cache
// statistics from the same pair of runs. Fields are plain values (no live
// cores), so rows survive a JSON round trip — which is what lets the fig8
// grid persist in the on-disk row store.
type Fig8Row struct {
	Format jpegsim.Format
	Size   string
	Blocks int

	BaseCycles   uint64
	SecureCycles uint64

	// Per-level cache statistics for Fig. 9.
	BaseIL1, SecureIL1 cache.Stats
	BaseDL1, SecureDL1 cache.Stats
	BaseL2, SecureL2   cache.Stats

	Overhead float64 // SeMPE/Baseline - 1
}

// Fig8Spec parameterizes the djpeg sweep.
type Fig8Spec struct {
	Sparsity int
	Seed     uint64
	Sizes    []jpegsim.Size
}

// DefaultFig8Spec mirrors the paper's grid: three formats by four sizes.
// 60% busy blocks puts the decoder in the regime where the measured
// overheads land inside the paper's 31-87% band.
func DefaultFig8Spec() Fig8Spec {
	return Fig8Spec{Sparsity: 60, Seed: 11, Sizes: jpegsim.SizeLabels}
}

// fig8SpecOf parses an engine spec. The "sizes" parameter accepts the
// paper's size labels ("256k,512k") or explicit label:blocks pairs
// ("tiny:8").
func fig8SpecOf(spec scenario.Spec) (Fig8Spec, error) {
	f := DefaultFig8Spec()
	if spec.Quick {
		f.Sizes = f.Sizes[:2]
	}
	return f, firstErr(
		checkParams(spec, "sparsity", "seed", "sizes"),
		param(spec, "sparsity", &f.Sparsity, atoi),
		param(spec, "seed", &f.Seed, atou),
		param(spec, "sizes", &f.Sizes, listOf(parseSize)),
	)
}

func parseSize(field string) (jpegsim.Size, error) {
	label, blocks, found := strings.Cut(field, ":")
	if !found {
		size, ok := jpegsim.SizeByLabel(field)
		if !ok {
			return jpegsim.Size{}, fmt.Errorf("unknown size label %q", field)
		}
		return size, nil
	}
	n, err := strconv.Atoi(blocks)
	if err != nil {
		return jpegsim.Size{}, fmt.Errorf("bad block count in %q", field)
	}
	return jpegsim.Size{Label: label, Blocks: n}, nil
}

func (f Fig8Spec) plan() (*scenario.Plan, error) {
	blocks := mapSlice(f.Sizes, func(s jpegsim.Size) int { return s.Blocks })
	if err := firstErr(
		inRange("sparsity", 0, 100, f.Sparsity),
		inRange("sizes", 1, jpegsim.MaxBlocks, blocks...),
	); err != nil {
		return nil, err
	}
	return &scenario.Plan{
		Axes: []scenario.Axis{
			{Name: "format", Values: mapSlice(jpegsim.Formats(), jpegsim.Format.String)},
			{Name: "size", Values: mapSlice(f.Sizes, func(s jpegsim.Size) string { return s.Label })},
		},
		Point: func(p scenario.Point) (any, error) {
			return fig8Point(f, jpegsim.Formats()[p.Coords[0]], f.Sizes[p.Coords[1]])
		},
	}, nil
}

// fig8Sweep is the djpeg decoder grid shared by fig8 and fig9.
var fig8Sweep = &scenario.Sweep{
	ID:        "fig8",
	Plan:      planOf(fig8SpecOf),
	DecodeRow: decodeRowAs[Fig8Row],
}

// fig8Point runs one (format, size) cell: the decoder on the unprotected
// core and on the secure core.
func fig8Point(spec Fig8Spec, format jpegsim.Format, size jpegsim.Size) (Fig8Row, error) {
	img := jpegsim.ImageSpec{Format: format, Blocks: size.Blocks, Sparsity: spec.Sparsity, Seed: spec.Seed}
	p := jpegsim.BuildProgram(img)
	base, err := mustRun(pipeline.DefaultConfig(), p, compile.Plain)
	if err != nil {
		return Fig8Row{}, fmt.Errorf("fig8 %v/%s base: %w", format, size.Label, err)
	}
	sec, err := mustRun(pipeline.SecureConfig(), p, compile.SeMPE)
	if err != nil {
		return Fig8Row{}, fmt.Errorf("fig8 %v/%s sempe: %w", format, size.Label, err)
	}
	row := Fig8Row{
		Format:       format,
		Size:         size.Label,
		Blocks:       size.Blocks,
		BaseCycles:   base.Stats.Cycles,
		SecureCycles: sec.Stats.Cycles,
		BaseIL1:      base.Hier.IL1.Stats,
		SecureIL1:    sec.Hier.IL1.Stats,
		BaseDL1:      base.Hier.DL1.Stats,
		SecureDL1:    sec.Hier.DL1.Stats,
		BaseL2:       base.Hier.L2.Stats,
		SecureL2:     sec.Hier.L2.Stats,
		Overhead:     float64(sec.Stats.Cycles)/float64(base.Stats.Cycles) - 1,
	}
	releaseCore(pipeline.DefaultConfig(), base)
	releaseCore(pipeline.SecureConfig(), sec)
	return row, nil
}

// RenderFig8 renders the execution-time overhead grid.
func RenderFig8(rows []Fig8Row) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 8: libjpeg (djpeg) execution-time overhead of SeMPE vs. unprotected baseline",
		Header: []string{"format", "size", "base cycles", "SeMPE cycles", "overhead"},
	}
	for _, r := range rows {
		t.AddRow(r.Format.String(), r.Size,
			stats.Int(r.BaseCycles), stats.Int(r.SecureCycles),
			stats.Percent(r.Overhead))
	}
	t.AddNote("paper: overheads between 31%% and 87%% across formats (PPM > GIF > BMP), largely independent of input size")
	return t
}

// RenderFig9 renders the three cache miss-rate panels.
func RenderFig9(rows []Fig8Row) *stats.Table {
	t := &stats.Table{
		Title: "Figure 9: cache miss rates, baseline vs. SeMPE (IL1 / DL1 / L2)",
		Header: []string{"format", "size",
			"IL1 base", "IL1 SeMPE", "DL1 base", "DL1 SeMPE", "L2 base", "L2 SeMPE"},
	}
	for _, r := range rows {
		t.AddRow(r.Format.String(), r.Size,
			stats.Percent(r.BaseIL1.MissRate()),
			stats.Percent(r.SecureIL1.MissRate()),
			stats.Percent(r.BaseDL1.MissRate()),
			stats.Percent(r.SecureDL1.MissRate()),
			stats.Percent(r.BaseL2.MissRate()),
			stats.Percent(r.SecureL2.MissRate()))
	}
	t.AddNote("paper: IL1 miss rates low and size-insensitive; DL1/L2 similar between baseline and SeMPE, with slight locality benefits from dual-path execution")
	return t
}

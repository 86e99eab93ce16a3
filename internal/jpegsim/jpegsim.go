// Package jpegsim is the repository's stand-in for the paper's real-world
// benchmark: libjpeg's djpeg decompressing to PPM, GIF, or BMP. The paper
// exploits the fact that djpeg's per-block decoding steps contain
// conditional branches on the (secret) image content — the classic
// end-of-block/skip structure that makes busy image regions take longer to
// decode than flat ones, revealing image detail — while the output-format
// back-ends add differing amounts of content-independent work.
//
// We reproduce that structure rather than the codec: a synthetic compressed
// image is a sequence of 8x8 coefficient blocks; the decoder takes one
// secret-dependent branch per block decoding step (busy block -> full
// dequantize/accumulate pass over all 64 coefficients, flat block -> cheap
// skip), then runs a format-specific amount of public post-processing.
// Input size scales the block count only, which is why the paper's
// overheads are insensitive to image size (Fig. 8); the output format
// changes both the secret-dependent decode depth and the public back-end
// work, which is why overheads order PPM > GIF > BMP. DESIGN.md records
// this substitution.
package jpegsim

import (
	"fmt"

	"repro/internal/lang"
)

// Format is the djpeg output format.
type Format int

// Output formats, ordered as in the paper's figures.
const (
	PPM Format = iota
	GIF
	BMP
)

// Formats returns all output formats in figure order.
func Formats() []Format { return []Format{PPM, GIF, BMP} }

// ParseFormat returns the format named s ("ppm", "gif", "bmp"; case
// matters only in that upper-case figure labels are accepted too) — the
// inverse of Format.String, shared by the scenario specs and cmd tools.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "ppm", "PPM":
		return PPM, nil
	case "gif", "GIF":
		return GIF, nil
	case "bmp", "BMP":
		return BMP, nil
	}
	return 0, fmt.Errorf("jpegsim: unknown format %q (have ppm|gif|bmp)", s)
}

func (f Format) String() string {
	switch f {
	case PPM:
		return "PPM"
	case GIF:
		return "GIF"
	case BMP:
		return "BMP"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// Params returns the format's work profile: the number of dequantize/
// accumulate steps per coefficient inside the secret decode path (PPM's
// full-quality pipeline performs more secret-dependent decode work) and the
// public post-processing iterations per block (BMP's row padding and
// reordering are heavy but content-independent; GIF's palette mapping sits
// in between; PPM's raw triplet output is cheap). The ratio of secret to
// public work is what produces the paper's PPM > GIF > BMP overhead
// ordering in Fig. 8.
func (f Format) Params() (secretReps, publicOps int) {
	switch f {
	case PPM:
		return 6, 8
	case GIF:
		return 2, 42
	case BMP:
		return 2, 92
	}
	panic("jpegsim: unknown format")
}

// CoeffsPerBlock is the number of coefficients per 8x8 block.
const CoeffsPerBlock = 64

// MaxBlocks bounds an image's block count: 32x the paper's largest size
// (128 blocks), and at about 520 B per block well inside the data region.
// The scenario specs and the cmd tools reject a larger image: at 100000000
// blocks its coefficients alone would take 51 GB.
const MaxBlocks = 4096

// ImageSpec describes one synthetic compressed image. The coefficient
// contents are the secret.
type ImageSpec struct {
	Format   Format
	Blocks   int    // number of 8x8 blocks
	Sparsity int    // percentage of busy blocks (0..100)
	Seed     uint64 // content generator seed: different seed = different image
}

func (s ImageSpec) String() string {
	return fmt.Sprintf("%v/blocks=%d/busy=%d%%", s.Format, s.Blocks, s.Sparsity)
}

// Size is one position on the input-size axis: the paper's label and the
// scaled block count this repository simulates for it.
type Size struct {
	Label  string
	Blocks int
}

// SizeLabels maps the paper's input-size axis (Fig. 8/9) to block counts.
// The paper decompresses 256k..2048k images; we scale each label to a
// proportional number of blocks so a full sweep simulates quickly. The
// size-insensitivity result depends only on proportionality.
var SizeLabels = []Size{
	{"256k", 16},
	{"512k", 32},
	{"1024k", 64},
	{"2048k", 128},
}

// SizeByLabel resolves one label of the input-size axis.
func SizeByLabel(label string) (Size, bool) {
	for _, s := range SizeLabels {
		if s.Label == label {
			return s, true
		}
	}
	return Size{}, false
}

// Coefficients deterministically generates the image content with an
// xorshift64 generator seeded by Seed. Exactly Sparsity% of the blocks are
// busy (nonzero DC coefficient, dense AC content); which blocks those are
// is a seeded shuffle, so different seeds give different images whose busy
// layout — the property the decode-skip branch leaks — differs, while the
// busy *fraction* (and hence aggregate decode work) is held constant so the
// Fig. 8 overhead comparison is not hostage to sampling noise.
func Coefficients(spec ImageSpec) []uint64 {
	out := make([]uint64, spec.Blocks*CoeffsPerBlock)
	x := spec.Seed*2685821657736338717 + 1442695040888963407
	if x == 0 {
		x = 88172645463325252
	}
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Choose exactly round(Blocks*Sparsity/100) busy blocks by a seeded
	// Fisher-Yates shuffle of the block indices.
	perm := make([]int, spec.Blocks)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	busyCount := (spec.Blocks*spec.Sparsity + 50) / 100
	for _, b := range perm[:busyCount] {
		base := b * CoeffsPerBlock
		out[base] = next()>>32%255 + 1 // nonzero DC marks a busy block
		for i := 1; i < CoeffsPerBlock; i++ {
			out[base+i] = next() >> 32 % 256
		}
	}
	return out
}

// QuantTable returns a fixed public dequantization table (larger divisors
// at higher frequencies, like the standard luminance table).
func QuantTable() []uint64 {
	q := make([]uint64, CoeffsPerBlock)
	for i := range q {
		q[i] = uint64(16 + 2*i)
	}
	return q
}

// BuildProgram emits the decoder for the given image as a lang program.
// The per-block decode branch is marked secret; everything else is public.
// The checksum accumulates decoded pixel state so the output is observable.
func BuildProgram(spec ImageSpec) *lang.Program {
	if spec.Blocks <= 0 {
		panic("jpegsim: no blocks")
	}
	reps, pubOps := spec.Format.Params()

	coeffs := Coefficients(spec)
	vars := []*lang.VarDecl{
		{Name: "iter"}, // reserved: mirrors the harness convention
		{Name: "cksum"},
		{Name: "bi"}, {Name: "ci"}, {Name: "c"}, {Name: "dc"},
		{Name: "acc"}, {Name: "pix"}, {Name: "pj"}, {Name: "qv"},
	}
	arrays := []*lang.ArrayDecl{
		{Name: "coeffs", Len: len(coeffs), Init: coeffs, Secret: true},
		{Name: "quant", Len: CoeffsPerBlock, Init: QuantTable()},
	}

	coeffIdx := lang.B(lang.Add,
		lang.B(lang.Mul, lang.V("bi"), lang.N(CoeffsPerBlock)), lang.V("ci"))

	// Busy path: a full dequantize/accumulate pass over the block, with
	// `reps` decode steps per coefficient.
	accStep := func(r int) lang.Stmt {
		return lang.Set("acc",
			lang.B(lang.And,
				lang.B(lang.Add, lang.V("acc"),
					lang.B(lang.Shr, lang.B(lang.Mul, lang.V("c"), lang.V("qv")), lang.N(int64(r+1)))),
				lang.N(0xFFFFFF)))
	}
	decodeBody := []lang.Stmt{
		lang.Set("c", lang.At("coeffs", coeffIdx)),
		lang.Set("qv", lang.At("quant", lang.V("ci"))),
	}
	for r := 0; r < reps; r++ {
		decodeBody = append(decodeBody, accStep(r))
	}
	decodeBody = append(decodeBody,
		lang.Set("ci", lang.B(lang.Add, lang.V("ci"), lang.N(1))))
	busy := []lang.Stmt{
		lang.Set("ci", lang.N(0)),
		lang.Loop(lang.B(lang.Lt, lang.V("ci"), lang.N(CoeffsPerBlock)), decodeBody),
	}

	// Flat path: the end-of-block skip — a short fixed pass.
	flat := []lang.Stmt{
		lang.Set("ci", lang.N(0)),
		lang.Loop(lang.B(lang.Lt, lang.V("ci"), lang.N(8)), []lang.Stmt{
			lang.Set("acc", lang.B(lang.And, lang.B(lang.Add, lang.V("acc"), lang.N(1)), lang.N(0xFFFFFF))),
			lang.Set("ci", lang.B(lang.Add, lang.V("ci"), lang.N(1))),
		}),
	}

	publicLoop := lang.Loop(lang.B(lang.Lt, lang.V("pj"), lang.N(int64(pubOps))), []lang.Stmt{
		lang.Set("pix", lang.B(lang.And,
			lang.B(lang.Add, lang.B(lang.Mul, lang.V("pix"), lang.N(31)), lang.V("acc")),
			lang.N(0xFFFFFF))),
		lang.Set("pj", lang.B(lang.Add, lang.V("pj"), lang.N(1))),
	})

	blockLoop := lang.Loop(lang.B(lang.Lt, lang.V("bi"), lang.N(int64(spec.Blocks))), []lang.Stmt{
		// The DC coefficient decides the block class: the secret branch.
		lang.Set("dc", lang.At("coeffs",
			lang.B(lang.Mul, lang.V("bi"), lang.N(CoeffsPerBlock)))),
		lang.SecretIf(lang.B(lang.Ne, lang.V("dc"), lang.N(0)), busy, flat),
		lang.Set("pj", lang.N(0)),
		publicLoop,
		lang.Set("cksum", lang.B(lang.And,
			lang.B(lang.Add, lang.V("cksum"), lang.B(lang.Add, lang.V("pix"), lang.V("acc"))),
			lang.N(0x7FFFFFFF))),
		lang.Set("bi", lang.B(lang.Add, lang.V("bi"), lang.N(1))),
	})

	return &lang.Program{
		Name:   fmt.Sprintf("djpeg_%s", spec.Format),
		Vars:   vars,
		Arrays: arrays,
		Body:   []lang.Stmt{blockLoop},
	}
}

// ReferenceChecksum decodes the image with a direct Go model of the same
// algorithm, for validating the compiled program's result.
func ReferenceChecksum(spec ImageSpec) uint64 {
	reps, pubOps := spec.Format.Params()
	coeffs := Coefficients(spec)
	quant := QuantTable()
	var cksum, acc, pix uint64
	for b := 0; b < spec.Blocks; b++ {
		base := b * CoeffsPerBlock
		if coeffs[base] != 0 {
			for ci := 0; ci < CoeffsPerBlock; ci++ {
				c := coeffs[base+ci]
				qv := quant[ci]
				for r := 0; r < reps; r++ {
					acc = (acc + (c*qv)>>(uint(r)+1)) & 0xFFFFFF
				}
			}
		} else {
			for ci := 0; ci < 8; ci++ {
				acc = (acc + 1) & 0xFFFFFF
			}
		}
		for j := 0; j < pubOps; j++ {
			pix = (pix*31 + acc) & 0xFFFFFF
		}
		cksum = (cksum + pix + acc) & 0x7FFFFFFF
	}
	return cksum
}

package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

// derive turns the benchmark seed into an independent seed for one named
// input stream (and index within it), so adding a stream never shifts
// another's values. SplitMix64 finalizer over seed ^ FNV(stream) ^ k.
func derive(seed uint64, stream string, k int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	z := seed ^ h.Sum64() ^ (uint64(k)+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func rngFor(seed uint64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(int64(derive(seed, stream, 0) >> 1)))
}

// request is one POST /runs body the serve workloads send. Shape names the
// family and parameter combination that set how much work it is.
type request struct {
	Scenario string
	Params   map[string]string
	Shape    string
}

func (q request) spec() scenario.Spec {
	return scenario.Spec{Workers: 1, Params: q.Params}
}

// key is the request's identity as the server's caches see it.
func (q request) key() string { return q.Scenario + "|" + q.spec().Key() }

func (q request) String() string { return fmt.Sprintf("%s %v", q.Scenario, q.Params) }

// specFamily is one scenario's kind of request. The parameters that set
// how much work a request is (its shape) are fixed lists; the seed draws
// only values that leave the work unchanged — secrets, attack and image
// seeds. Every seed thus offers the same work in the same order, and seeds
// differ in inputs, not in load.
type specFamily struct {
	scenario string
	fixed    map[string]string
	shape    []axis
	vary     func(r *rand.Rand) map[string]string
}

type axis struct {
	key    string
	values []string
}

func (f specFamily) shapes() int {
	n := 1
	for _, a := range f.shape {
		n *= len(a.values)
	}
	return n
}

// request builds a request of the given shape index.
func (f specFamily) request(shape int, r *rand.Rand) request {
	q := request{Scenario: f.scenario, Params: map[string]string{}, Shape: fmt.Sprintf("%s#%d", f.scenario, shape)}
	for k, v := range f.fixed {
		q.Params[k] = v
	}
	for _, a := range f.shape {
		q.Params[a.key] = a.values[shape%len(a.values)]
		shape /= len(a.values)
	}
	for k, v := range f.vary(r) {
		q.Params[k] = v
	}
	return q
}

func between(r *rand.Rand, lo, hi int) string { return strconv.Itoa(lo + r.Intn(hi-lo+1)) }

func drawSeed(r *rand.Rand) map[string]string {
	return map[string]string{"seed": strconv.Itoa(1 + r.Intn(1_000_000_000))}
}

func drawSecrets(n int) func(r *rand.Rand) map[string]string {
	return func(r *rand.Rand) map[string]string {
		s := make([]string, n)
		for i := range s {
			s[i] = between(r, i*1024/n, (i+1)*1024/n-1)
		}
		return map[string]string{"secrets": strings.Join(s, ",")}
	}
}

// readFamilies are cheap specs (a few ms of simulation each): what the
// read path serves from its caches.
var readFamilies = []specFamily{
	{scenario: "leakmatrix", fixed: map[string]string{"iters": "1"},
		shape: []axis{{"kinds", []string{"fibonacci", "ones"}}, {"ws", []string{"1", "2"}}},
		vary:  drawSecrets(2)},
	{scenario: "fig8",
		shape: []axis{{"sizes", []string{"r:2", "r:4", "r:6"}}, {"sparsity", []string{"40", "60", "80"}}},
		vary:  drawSeed},
	{scenario: "keyextract",
		shape: []axis{{"attackers", []string{"bp", "cache"}}, {"victims", []string{"bit", "keyloop"}},
			{"widths", []string{"1", "2"}}, {"archs", []string{"baseline", "sempe"}}, {"trials", []string{"4", "8"}}},
		vary: drawSeed},
	{scenario: "spectre",
		shape: []axis{{"attackers", []string{"bp", "cache"}}, {"archs", []string{"baseline", "sempe"}},
			{"trials", []string{"4", "6", "8"}}},
		vary: drawSeed},
}

// writeFamilies are the five scenario families the write path computes:
// 52 shapes, each request costing tens to low hundreds of ms of simulation.
var writeFamilies = []specFamily{
	{scenario: "fig10a",
		shape: []axis{{"kinds", []string{"fibonacci", "ones", "quicksort", "queens"}},
			{"ws", []string{"2", "4"}}, {"iters", []string{"1", "2"}}},
		vary: func(r *rand.Rand) map[string]string { return map[string]string{"secret": between(r, 1, 1023)} }},
	{scenario: "fig8",
		shape: []axis{{"sizes", []string{"w:12", "w:19", "w:26", "w:33", "w:40"}}, {"sparsity", []string{"40", "60"}}},
		vary:  drawSeed},
	{scenario: "keyextract", fixed: map[string]string{"archs": "baseline,sempe", "trials": "12"},
		shape: []axis{{"attackers", []string{"bp", "cache"}}, {"victims", []string{"keyloop", "modexp"}},
			{"widths", []string{"3", "4"}}},
		vary: drawSeed},
	{scenario: "spectre", fixed: map[string]string{"archs": "baseline,sempe"},
		shape: []axis{{"attackers", []string{"bp", "cache", "bp,cache"}}, {"trials", []string{"16", "24"}}},
		vary:  drawSeed},
	{scenario: "leakmatrix",
		shape: []axis{{"kinds", []string{"fibonacci", "ones", "quicksort"}}, {"ws", []string{"2", "3"}},
			{"iters", []string{"2", "3"}}},
		vary: drawSecrets(3)},
}

// drawSpecs draws n requests with pairwise-distinct cache keys. Request i
// takes the (i mod total)-th of all the families' shapes, so each shape
// recurs at evenly spaced positions.
func drawSpecs(seed uint64, stream string, families []specFamily, n int) []request {
	type slot struct{ family, shape int }
	var slots []slot
	for fi, f := range families {
		for s := 0; s < f.shapes(); s++ {
			slots = append(slots, slot{fi, s})
		}
	}
	r := rngFor(seed, stream)
	seen := map[string]bool{}
	out := make([]request, 0, n)
	for len(out) < n {
		sl := slots[len(out)%len(slots)]
		q := families[sl.family].request(sl.shape, r)
		if seen[q.key()] {
			continue // redraw the seeded values
		}
		seen[q.key()] = true
		out = append(out, q)
	}
	return out
}

// zipfSchedule draws n indices into [0, k) from a Zipf(1.1) law: a few hot
// specs the LRU keeps and a long tail it cannot.
func zipfSchedule(seed uint64, n, k int) []int {
	z := rand.NewZipf(rngFor(seed, "serve-read/zipf"), 1.1, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// keyextractSeed is the attack seed of pass k.
func keyextractSeed(seed uint64, k int) int64 {
	return int64(derive(seed, "keyextract", k)%1_000_000_000) + 1
}

// paperInputs are the seeded inputs of the paper sweep: the Fig. 10 secret
// (its low ten bits pick each iteration's baseline path) and the Fig. 8
// image seed.
func paperInputs(seed uint64) (fig10Secret, fig8Seed uint64) {
	return derive(seed, "fig10", 0) & 0x3FF, derive(seed, "fig8", 0)%1_000_000_000 + 1
}

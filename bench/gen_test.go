package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSpecsDeterministicPerSeed(t *testing.T) {
	for _, tc := range []struct {
		stream   string
		families []specFamily
		n        int
	}{{"serve-read/specs", readFamilies, 128}, {"serve-write/specs", writeFamilies, 210}} {
		a := drawSpecs(1, tc.stream, tc.families, tc.n)
		if b := drawSpecs(1, tc.stream, tc.families, tc.n); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed drew different specs", tc.stream)
		}
		if c := drawSpecs(2, tc.stream, tc.families, tc.n); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 drew the same specs", tc.stream)
		}
		seen := map[string]bool{}
		for _, q := range a {
			if seen[q.key()] {
				t.Errorf("%s: duplicate spec %s", tc.stream, q)
			}
			seen[q.key()] = true
		}
	}
}

// Seeds change inputs and arrival order, not how much work is offered:
// every seed draws the same multiset of request shapes.
func TestSpecsOfferTheSameWorkForEverySeed(t *testing.T) {
	shapes := func(seed uint64) []string {
		var out []string
		for _, q := range drawSpecs(seed, "serve-write/specs", writeFamilies, 210) {
			var parts []string
			for k, v := range q.Params {
				if k != "seed" && k != "secret" && k != "secrets" {
					parts = append(parts, k+"="+v)
				}
			}
			sort.Strings(parts)
			out = append(out, q.Scenario+" "+strings.Join(parts, " "))
		}
		sort.Strings(out)
		return out
	}
	if a, b := shapes(1), shapes(2); !reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 offer different request shapes")
	}
}

func TestSchedulesDeterministicPerSeed(t *testing.T) {
	a := zipfSchedule(1, 1500, 128)
	if !reflect.DeepEqual(a, zipfSchedule(1, 1500, 128)) {
		t.Error("same seed drew different schedules")
	}
	if reflect.DeepEqual(a, zipfSchedule(2, 1500, 128)) {
		t.Error("seeds 1 and 2 drew the same schedule")
	}
	counts := make([]int, 128)
	for _, i := range a {
		counts[i]++
	}
	if counts[0] < counts[64] || counts[0] < 100 {
		t.Errorf("schedule is not skewed: hottest spec %d requests, median spec %d", counts[0], counts[64])
	}
	if keyextractSeed(1, 0) == keyextractSeed(1, 1) || keyextractSeed(1, 0) == keyextractSeed(2, 0) {
		t.Error("key-extraction pass seeds collide")
	}
	s1, f1 := paperInputs(1)
	s2, f2 := paperInputs(2)
	if s1 == s2 && f1 == f2 {
		t.Error("paper-sweep inputs do not depend on the seed")
	}
}

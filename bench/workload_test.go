package main

import (
	"math"
	"testing"
	"time"
)

func TestTypicalTakesEachOperationsFastestRepetition(t *testing.T) {
	o := newOutcome()
	for _, s := range []opSample{{"a", 10}, {"b", 40}, {"a", 12}, {"b", 20}, {"a", 11}} {
		o.addOp(s.key, s.ms)
	}
	if got, want := o.typicalMS(), math.Sqrt(10*20); math.Abs(got-want) > 1e-9 {
		t.Errorf("typicalMS = %v, want %v (geometric mean of 10 and 20)", got, want)
	}
	if got := o.opLatencies(); len(got) != 2 || got[0] != 11 || got[1] != 30 {
		t.Errorf("opLatencies = %v, want the medians [11 30] in order of first appearance", got)
	}
	if newOutcome().typicalMS() != 0 {
		t.Error("typicalMS of no operations")
	}
}

func TestPassesDependOnTheBudgetAlone(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		want    int
	}{{15, 4}, {17, 4}, {1, 1}, {0.1, 1}} {
		n := 0
		passes(&env{seconds: tc.seconds}, 4*time.Second, func(int) bool { n++; return true })
		if n != tc.want {
			t.Errorf("%v s budget: %d passes, want %d", tc.seconds, n, tc.want)
		}
	}
	n := 0
	passes(&env{seconds: 15}, time.Second, func(k int) bool { n++; return k < 2 })
	if n != 3 {
		t.Errorf("a failing pass did not stop the run: %d passes", n)
	}
}

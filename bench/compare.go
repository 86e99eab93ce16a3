package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"text/tabwriter"
)

// Comparing a parent commit (A) with a change (B): one row per workload and
// end-to-end metric with both sides' medians and quartiles, the metric's
// bound, the share of A/B run pairs the change won, and a verdict that
// names the condition it tested and the threshold:
//
//	PASSED      the change's median is no worse than the parent's by more
//	            than the bound (or, when the parent's own spread exceeds
//	            the bound, every change run beat every parent run);
//	WARNING     worse by more than the parent's run-to-run spread, but
//	            within the bound;
//	FAILED      worse by more than the bound;
//	UNRESOLVED  the parent's spread exceeds the bound, so the runs cannot
//	            tell a regression from noise.
//
// A PASSED or WARNING row also says "gain" when the change won at least
// nine tenths of the pairs and its median is better by more than the
// parent's spread — the only condition under which a gain may be claimed.
// Exact (simulated) metrics are compared pair by pair on equal seeds.

type verdict struct {
	status string
	reason string
}

func loadRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// series lists one workload metric's value in each record that has it,
// with the record's seed.
func series(recs []record, workload, metric string) (vals []float64, seeds []uint64) {
	for _, r := range recs {
		res := r.Workloads[workload]
		if res == nil {
			continue
		}
		v, ok := res.Metrics[metric]
		if !ok {
			v, ok = res.Outcome[metric]
		}
		if ok {
			vals = append(vals, v.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vals, seeds
}

// compare prints the comparison table and reports whether any row FAILED.
func compare(w io.Writer, aPaths, bPaths []string) (bool, error) {
	a, err := loadRecords(aPaths)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(bPaths)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tbound\twins\tverdict")
	failed := false
	for _, wl := range allWorkloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), outcomeMetrics...) {
			av, as := series(a, wl.name, d.name)
			bv, bs := series(b, wl.name, d.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(d, av, bv, as, bs)
			failed = failed || v.status == "FAILED"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s: %s\n", wl.name, d.name,
				quartiles(av), quartiles(bv), boundText(d), winText(d, av, bv), v.status, v.reason)
		}
	}
	return failed, tw.Flush()
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%s [%s, %s]", num(median(xs)), num(quantile(xs, 0.25)), num(quantile(xs, 0.75)))
}

func num(x float64) string { return strconv.FormatFloat(x, 'g', 5, 64) }

func boundText(d metricDef) string {
	switch {
	case d.exact:
		return "exact"
	case d.abs:
		return "+" + num(d.bound)
	}
	return fmt.Sprintf("%.0f%%", 100*d.bound)
}

// better reports whether y is better than x under d.
func better(d metricDef, x, y float64) bool {
	if d.higher {
		return y > x
	}
	return y < x
}

// wins counts the A/B pairs (in run order) the change won; ties count for
// neither side.
func wins(d metricDef, a, b []float64) (won, pairs int) {
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(d, a[i], b[i]) {
			won++
		}
	}
	return won, pairs
}

func winText(d metricDef, a, b []float64) string {
	won, pairs := wins(d, a, b)
	return fmt.Sprintf("%d/%d", won, pairs)
}

// judge applies the verdict rules above to one metric's parent runs a and
// change runs b (aSeeds, bSeeds: each run's seed).
func judge(d metricDef, a, b []float64, aSeeds, bSeeds []uint64) verdict {
	if d.exact {
		diff, pairs := 0, min(len(a), len(b))
		for i := 0; i < pairs; i++ {
			if aSeeds[i] != bSeeds[i] {
				return verdict{"UNRESOLVED", fmt.Sprintf("pair %d ran seeds %d and %d; exact metrics compare equal seeds", i+1, aSeeds[i], bSeeds[i])}
			}
			if a[i] != b[i] {
				diff++
			}
		}
		if diff > 0 {
			return verdict{"FAILED", fmt.Sprintf("differs on %d of %d same-seed pairs; threshold: identical", diff, pairs)}
		}
		return verdict{"PASSED", fmt.Sprintf("identical on all %d same-seed pairs", pairs)}
	}
	ma, mb := median(a), median(b)
	spread := quantile(a, 0.75) - quantile(a, 0.25)
	worse := mb - ma
	if d.higher {
		worse = -worse
	}
	show := func(x float64) string { return num(x) }
	if !d.abs && ma != 0 {
		worse /= math.Abs(ma)
		spread /= math.Abs(ma)
		show = func(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && better(d, x, y)
		}
	}
	var v verdict
	switch {
	case spread > d.bound && allBetter:
		v = verdict{"PASSED", fmt.Sprintf("every change run beats every parent run (parent spread %s > bound %s)", show(spread), show(d.bound))}
	case spread > d.bound:
		v = verdict{"UNRESOLVED", fmt.Sprintf("parent spread %s > bound %s", show(spread), show(d.bound))}
	case worse > d.bound:
		v = verdict{"FAILED", fmt.Sprintf("median worse by %s > bound %s", show(worse), show(d.bound))}
	case worse > 0 && worse > spread:
		v = verdict{"WARNING", fmt.Sprintf("median worse by %s > parent spread %s, within bound %s", show(worse), show(spread), show(d.bound))}
	case worse >= 0:
		v = verdict{"PASSED", fmt.Sprintf("median worse by %s <= bound %s", show(worse), show(d.bound))}
	default:
		v = verdict{"PASSED", fmt.Sprintf("median better by %s", show(-worse))}
	}
	if won, pairs := wins(d, a, b); pairs > 0 && 10*won >= 9*pairs && -worse > spread {
		v.reason += fmt.Sprintf("; gain: won %d/%d pairs, better by %s > parent spread %s", won, pairs, show(-worse), show(spread))
	}
	return v
}

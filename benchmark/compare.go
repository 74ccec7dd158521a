package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(resultFile)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return r, nil
}

// verdict judges b against its base a on one metric of one workload.
//
//	unresolved  either side's own quartile spread exceeds the bound: the
//	            measurement cannot tell a change of that size from noise
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better than a's by more than a's own spread
//	same        anything else
func verdict(d metricDecl, a, b e2eValue) (ratio float64, v string) {
	if a.Median == 0 {
		return 0, "unresolved"
	}
	ratio = b.Median / a.Median
	gain := ratio - 1 // share of the base by which b is better
	if d.better == "lower" {
		gain = -gain
	}
	switch {
	case a.Spread > d.bound || b.Spread > d.bound:
		v = "unresolved"
	case gain < -d.bound:
		v = "worse"
	case gain > a.Spread:
		v = "better"
	default:
		v = "same"
	}
	return ratio, v
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, both quartile spreads, b's median as a ratio of a's (a is the
// base), the bound, and the verdict.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "base a: %s\n   %s; commit %s seed %d\n", pathA, a.Env.Header, a.Env.Commit, a.Env.Seed)
	fmt.Fprintf(out, "     b: %s\n   %s; commit %s seed %d\n", pathB, b.Env.Header, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(out, "%-16s %-18s %-6s %14s %8s %14s %8s %10s %6s  %s\n",
		"workload", "metric", "unit", "a median", "a iqr", "b median", "b iqr", "b/a", "bound", "verdict")
	counts := map[string]int{}
	for _, w := range workloads {
		wa, okA := a.Workloads[w.name]
		wb, okB := b.Workloads[w.name]
		if !okA || !okB {
			return fmt.Errorf("workload %s is missing from one of the files", w.name)
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			ratio, v := verdict(d, va, vb)
			counts[v]++
			fmt.Fprintf(out, "%-16s %-18s %-6s %14.4f %7.1f%% %14.4f %7.1f%% %10.4f %5.1f%%  %s\n",
				w.name, d.name, d.unit, va.Median, 100*va.Spread, vb.Median, 100*vb.Spread, ratio, 100*d.bound, v)
		}
		if wa.Failed != 0 || wb.Failed != 0 || !wa.Correct || !wb.Correct {
			counts["worse"]++
			fmt.Fprintf(out, "%-16s failed ops: a %d of %d (correct=%v), b %d of %d (correct=%v): any failure is a regression\n",
				w.name, wa.Failed, wa.Attempted, wa.Correct, wb.Failed, wb.Attempted, wb.Correct)
		}
	}
	fmt.Fprintf(out, "better %d  same %d  worse %d  unresolved %d\n",
		counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	return nil
}

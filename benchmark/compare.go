package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is -compare's judgement of one end-to-end metric on one
// workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictImproved   verdict = "improved"
	verdictRegression verdict = "REGRESSION"
	// verdictUnresolved: the runs of one side spread wider than the
	// bound, so a difference of the bound's size cannot be told from
	// noise. It is not "unchanged".
	verdictUnresolved verdict = "unresolved"
)

// judge applies direction and bound to two sets of runs. change is how
// much worse b's median is than a's, as a share of a's (negative when
// better).
func judge(d metricDef, a, b *metricRuns) (change, noise float64, v verdict) {
	if a.Median != 0 {
		change = (b.Median - a.Median) / math.Abs(a.Median)
	}
	if d.Better == "higher" {
		change = -change
	}
	noise = math.Max(spread(a.Runs), spread(b.Runs))
	switch {
	case noise > d.Bound:
		v = verdictUnresolved
	case change > d.Bound:
		v = verdictRegression
	case change < -d.Bound:
		v = verdictImproved
	default:
		v = verdictOK
	}
	return
}

// compareResults prints one row per workload x end-to-end metric (then
// the per-layer metrics both files have, without a verdict) and returns
// the number of regressions: metrics worse by more than their bound, and
// workloads where a larger share of actions failed.
func compareResults(w io.Writer, a, b *resultFile) int {
	regressions := 0
	fmt.Fprintf(w, "a: commit %s seed %d   b: commit %s seed %d\n", a.Commit, a.Seed, b.Commit, b.Seed)
	for _, wl := range workloads {
		name := wl.Name
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s\n", name)
		if wa.OpsDigest != wb.OpsDigest {
			fmt.Fprintf(w, "   op lists differ (%s vs %s): counts are not comparable run to run\n", wa.OpsDigest, wb.OpsDigest)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		if fb > fa {
			regressions++
			fmt.Fprintf(w, "   %-40s %14.6g -> %-14.6g %s\n", "failed/attempted", fa, fb, verdictRegression)
		}
		for _, d := range endToEnd {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma == nil || mb == nil {
				continue
			}
			change, noise, v := judge(d, ma, mb)
			if v == verdictRegression {
				regressions++
			}
			fmt.Fprintf(w, "   %-40s %14.6g -> %-14.6g %-6s %s better, worse by %+6.2f%% (bound %g%%, spread %.2f%%)  %s\n",
				d.Name, ma.Median, mb.Median, d.Unit, d.Better, 100*change, 100*d.Bound, 100*noise, v)
		}
		for _, d := range perLayer {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma == nil || mb == nil {
				continue
			}
			fmt.Fprintf(w, "   %-40s %14.6g -> %-14.6g %s\n", d.Name, ma.Median, mb.Median, d.Unit)
		}
	}
	return regressions
}

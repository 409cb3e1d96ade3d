package costmodel

import (
	"fmt"
	"math"
	"testing"
)

// The advisor ranks configurations by these predictions, so the model
// must move the right direction as the environment degrades: deeper and
// wider trees, more contention and more sync volume must never get
// cheaper, while a better compression ratio, a looser staleness bound
// and a wider subscription must never get more expensive. A silent sign flip
// here would invert the advisor's ranking without failing any
// table-reproduction test.

// knobGrid is a spread of candidate configurations the monotonicity
// properties must hold for — not just the baseline.
func knobGrid() []Knobs {
	return []Knobs{
		{},
		{Strategy: EarlyEval},
		{Strategy: Recursive},
		{Strategy: EarlyEval, Batching: true},
		{Strategy: EarlyEval, Batching: true, Prepared: true},
		{Strategy: Recursive, Compress: true},
		{Strategy: EarlyEval, Batching: true, CacheEntries: 256},
		{Strategy: Recursive, Replica: true, StalenessSec: 30},
	}
}

func baseWorkload() Workload {
	return Workload{
		Model:         Model{Net: PaperNetworks()[0], Tree: Tree{Depth: 5, Branch: 4, Sigma: 0.6}, SyncBytes: 32 * 1024},
		Action:        MLE,
		WriteFrac:     0.2,
		RepeatFrac:    0.5,
		LockWaitSec:   0.01,
		ActionsPerSec: 0.5,
	}
}

// assertMonotone checks that f over xs moves only in the given
// direction (allowing plateaus — some knobs are insensitive to some
// parameters, e.g. a recursive query's round trips to depth).
func assertMonotone(t *testing.T, name string, xs []float64, f func(x float64) float64, increasing bool) {
	t.Helper()
	prev := f(xs[0])
	for _, x := range xs[1:] {
		cur := f(x)
		if increasing && cur < prev-1e-12 {
			t.Errorf("%s: prediction dropped from %.6f to %.6f at %v, want non-decreasing", name, prev, cur, x)
		}
		if !increasing && cur > prev+1e-12 {
			t.Errorf("%s: prediction rose from %.6f to %.6f at %v, want non-increasing", name, prev, cur, x)
		}
		prev = cur
	}
}

func TestPredictWorkloadMonotoneInDepth(t *testing.T) {
	for _, k := range knobGrid() {
		t.Run(fmt.Sprintf("%+v", k), func(t *testing.T) {
			assertMonotone(t, "depth", []float64{1, 2, 3, 5, 7, 9}, func(x float64) float64 {
				w := baseWorkload()
				w.Tree.Depth = int(x)
				return PredictWorkload(k, w).PerActionSec
			}, true)
		})
	}
}

func TestPredictWorkloadMonotoneInBranch(t *testing.T) {
	for _, k := range knobGrid() {
		t.Run(fmt.Sprintf("%+v", k), func(t *testing.T) {
			assertMonotone(t, "branch", []float64{2, 3, 5, 7, 9}, func(x float64) float64 {
				w := baseWorkload()
				w.Tree.Branch = int(x)
				return PredictWorkload(k, w).PerActionSec
			}, true)
		})
	}
}

// TestPredictWorkloadMonotoneInCoverage: the wider a site's measured
// subscription, the more of its reads run site-local instead of falling
// through to the primary, so a replica read never gets dearer. The
// bound -1 keeps the pull, which shrinks with coverage, out of it.
func TestPredictWorkloadMonotoneInCoverage(t *testing.T) {
	for _, k := range knobGrid() {
		k.Replica, k.StalenessSec = true, -1
		t.Run(fmt.Sprintf("%+v", k), func(t *testing.T) {
			assertMonotone(t, "coverage", []float64{0.25, 0.5, 0.75, 1}, func(x float64) float64 {
				w := baseWorkload()
				w.Coverage = x
				return PredictWorkload(k, w).ReadSec
			}, false)
		})
	}
}

// TestPredictWorkloadWholeProductReadsFallThrough: at a
// subscription-bounded site a Query, where-used or report runs at the
// primary as one fall-through read whatever the coverage, so it prices
// as the same read at the primary plus the site's sync share.
func TestPredictWorkloadWholeProductReadsFallThrough(t *testing.T) {
	for _, a := range []Action{Query, WhereUsed, Report} {
		for _, k := range knobGrid() {
			for _, bound := range []float64{-1, 30} {
				w := baseWorkload()
				w.Action = a
				atPrimary := k
				atPrimary.Replica, atPrimary.StalenessSec = false, -1
				want := PredictWorkload(atPrimary, w).ReadSec
				k.Replica, k.StalenessSec = true, bound
				for _, cov := range []float64{0.25, 0.5, 0.75} {
					w.Coverage = cov
					est := PredictWorkload(k, w)
					if got := est.ReadSec - est.SyncSec; math.Abs(got-want) > 1e-12 {
						t.Errorf("%v %+v coverage %v: %.6f s besides the sync share, want %.6f as at the primary", a, k, cov, got, want)
					}
				}
			}
		}
	}
}

func TestPredictWorkloadMonotoneInCompressionRatio(t *testing.T) {
	k := Knobs{Strategy: Recursive, Batching: true, Compress: true}
	assertMonotone(t, "ratio", []float64{1, 2, 5, 10, 20, 100}, func(x float64) float64 {
		w := baseWorkload()
		w.CompressionRatio = x
		return PredictWorkload(k, w).PerActionSec
	}, false)
}

func TestPredictWorkloadMonotoneInStaleness(t *testing.T) {
	k := Knobs{Strategy: Recursive, Replica: true}
	assertMonotone(t, "staleness", []float64{0, 1, 10, 60, 600}, func(x float64) float64 {
		k.StalenessSec = x
		return PredictWorkload(k, baseWorkload()).PerActionSec
	}, false)
}

func TestPredictWorkloadMonotoneInContention(t *testing.T) {
	for _, k := range knobGrid() {
		t.Run(fmt.Sprintf("%+v", k), func(t *testing.T) {
			assertMonotone(t, "lock wait", []float64{0, 0.001, 0.01, 0.1, 1}, func(x float64) float64 {
				w := baseWorkload()
				w.LockWaitSec = x
				return PredictWorkload(k, w).PerActionSec
			}, true)
		})
	}
}

func TestPredictWorkloadMonotoneInSyncVolume(t *testing.T) {
	k := Knobs{Strategy: Recursive, Replica: true, StalenessSec: 10}
	assertMonotone(t, "sync bytes", []float64{0, 1024, 64 * 1024, 1024 * 1024}, func(x float64) float64 {
		w := baseWorkload()
		w.SyncBytes = x
		return PredictWorkload(k, w).PerActionSec
	}, true)
}

// The same directions must hold for the underlying paper formulas the
// blend is built from — a regression there would poison every shaped
// prediction.
func TestPredictMonotoneInDepthAndBranch(t *testing.T) {
	net := PaperNetworks()[0]
	for _, s := range Strategies {
		for _, a := range Actions {
			assertMonotone(t, fmt.Sprintf("%v/%v depth", s, a), []float64{1, 3, 5, 9}, func(x float64) float64 {
				return Model{Net: net, Tree: Tree{Depth: int(x), Branch: 4, Sigma: 0.6}}.Price(Knobs{Strategy: s}, a).TotalSec
			}, true)
			assertMonotone(t, fmt.Sprintf("%v/%v branch", s, a), []float64{2, 4, 6, 9}, func(x float64) float64 {
				return Model{Net: net, Tree: Tree{Depth: 5, Branch: int(x), Sigma: 0.6}}.Price(Knobs{Strategy: s}, a).TotalSec
			}, true)
		}
	}
}

// Sanity, not just direction: the blend must reproduce known structure.
func TestPredictWorkloadShapePreferences(t *testing.T) {
	w := baseWorkload()

	// A repeat-heavy read workload must get cheaper with a cache.
	w.RepeatFrac = 0.9
	w.WriteFrac = 0
	noCache := PredictWorkload(Knobs{Strategy: Recursive, Batching: true}, w)
	cache := PredictWorkload(Knobs{Strategy: Recursive, Batching: true, CacheEntries: 256}, w)
	if cache.PerActionSec >= noCache.PerActionSec {
		t.Errorf("cache does not pay off on repeat-heavy reads: %.3fs >= %.3fs",
			cache.PerActionSec, noCache.PerActionSec)
	}

	// The same cache is worthless on a cold scan.
	w.RepeatFrac = 0
	coldCache := PredictWorkload(Knobs{Strategy: Recursive, Batching: true, CacheEntries: 256}, w)
	coldPlain := PredictWorkload(Knobs{Strategy: Recursive, Batching: true}, w)
	if coldCache.PerActionSec != coldPlain.PerActionSec {
		t.Errorf("cache changed a cold prediction: %.3fs != %.3fs",
			coldCache.PerActionSec, coldPlain.PerActionSec)
	}

	// Batching must beat per-statement round trips for navigational MLE.
	w = baseWorkload()
	plain := PredictWorkload(Knobs{Strategy: EarlyEval}, w)
	batched := PredictWorkload(Knobs{Strategy: EarlyEval, Batching: true}, w)
	if batched.PerActionSec >= plain.PerActionSec {
		t.Errorf("batching does not pay off: %.3fs >= %.3fs", batched.PerActionSec, plain.PerActionSec)
	}

	// Replica reads must beat WAN reads for a read-only workload.
	w.WriteFrac = 0
	replica := PredictWorkload(Knobs{Strategy: Recursive, Replica: true, StalenessSec: 60}, w)
	wan := PredictWorkload(Knobs{Strategy: Recursive}, w)
	if replica.PerActionSec >= wan.PerActionSec {
		t.Errorf("replica reads do not pay off: %.3fs >= %.3fs", replica.PerActionSec, wan.PerActionSec)
	}

	// The lock-wait share must be visible in the estimate.
	w = baseWorkload()
	est := PredictWorkload(Knobs{}, w)
	if est.LockWaitSec <= 0 || est.WriteSec <= est.LockWaitSec {
		t.Errorf("contention share missing from write cost: %+v", est)
	}
}

// Package advisor closes the tuning loop the paper leaves to the DBA:
// it observes the windowed WAN metrics of a live session or fleet,
// distills them into a costmodel workload, ranks candidate
// configurations over the client's tuning knobs with the analytic cost
// model, and emits either a read-only diagnosis (DiagSnapshot) or a
// fingerprinted, rollback-capable change set (ChangeSet) — tuning as an
// output of the system instead of an input.
package advisor

import (
	"sort"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
	"pdmtune/internal/workload"
)

// Observation is one windowed look at a live session — everything the
// advisor may use. Window is a Metrics delta between two Meter.Snapshot
// calls; the remaining fields describe the environment the window was
// taken in.
type Observation struct {
	// Window is the metered traffic of the observation window.
	Window netsim.Metrics
	// Site is the site the observed session reads from ("" or
	// "primary" for the primary itself).
	Site string
	// Link is the WAN profile between the client (or its site) and the
	// primary.
	Link netsim.Link
	// LocalLink is the site-local profile of replica reads (ignored at
	// the primary).
	LocalLink netsim.Link
	// Tree is the product shape under traversal, set by the Advisor
	// from its Product.
	Tree costmodel.Tree
	// SyncBytes is the observed payload of one replication pull
	// (replica sessions only): the charged response volume per pull
	// less the half-filled last packet, as Model.SyncBytes counts it.
	SyncBytes float64
	// Coverage is the measured subscription coverage of the site: the
	// share of pulled rows its subscription kept (0: a full replica).
	Coverage float64
}

// Classify distills an observation window into the costmodel workload
// the ranking prices every candidate against. It never fails: an empty
// window distills to a cold read at the observed site — the advisor's
// no-information default.
func Classify(o Observation) costmodel.Workload {
	m := o.Window
	actions := m.Actions()
	var writeFrac, repeatFrac float64
	if actions > 0 {
		writeFrac = float64(m.WriteActions) / float64(actions)
	}
	if m.ReadActions > 0 {
		repeatFrac = float64(m.RepeatActions) / float64(m.ReadActions)
	}
	var lockWaitSec float64
	if m.WriteActions > 0 {
		lockWaitSec = float64(m.LockWaitNanos) / 1e9 / float64(m.WriteActions)
	}
	var actionsPerSec float64
	if sec := m.TotalSec(); sec > 0 {
		actionsPerSec = float64(actions) / sec
	}

	return costmodel.Workload{
		Model: costmodel.Model{
			Net:       o.Link,
			LocalNet:  o.LocalLink,
			Tree:      o.Tree,
			SyncBytes: o.SyncBytes,
		},
		Action:        costmodel.MLE, // the one action the knobs disagree on
		WriteFrac:     writeFrac,
		RepeatFrac:    repeatFrac,
		LockWaitSec:   lockWaitSec,
		ActionsPerSec: actionsPerSec,
		Coverage:      o.Coverage,
	}
}

// Recommendation is one ranked candidate configuration.
type Recommendation struct {
	Config costmodel.Knobs
	// PredictedSec is the expected simulated seconds of one action
	// under the candidate.
	PredictedSec float64
	// CurrentSec is the same prediction for the configuration the
	// observation was taken under; DeltaPct is the predicted saving.
	CurrentSec float64
	DeltaPct   float64
}

// The ranking's fixed bounds: how many recommendations Recommend
// returns, and the cache bound candidate configurations propose.
const (
	topK         = 3
	cacheEntries = 256
)

// candidates enumerates the knob lattice around the current
// configuration: every strategy, batching, prepared and cache choice,
// the negotiated wire encodings, and — at a replica — a spread of
// staleness bounds. What a running session cannot change, or does not
// read, is kept as it is: the location (Replica) and the replica knobs
// at the primary. The transport is an open-time decision and no knob at
// all, and the site's subscription is measured (Observation.Coverage),
// not proposed.
func candidates(current costmodel.Knobs) []costmodel.Knobs {
	stalenesses := []float64{current.StalenessSec}
	if current.Replica {
		stalenesses = []float64{0, 5, 30, 300}
	}
	var out []costmodel.Knobs
	for _, strat := range costmodel.Strategies {
		for _, batching := range []bool{false, true} {
			for _, prepared := range []bool{false, true} {
				if prepared && !batching {
					// The prepared win the model knows about is the
					// shrunken per-statement batch frame; alone it only
					// adds the prepare round trip.
					continue
				}
				for _, cache := range []int{0, cacheEntries} {
					for _, compress := range []bool{false, true} {
						for _, st := range stalenesses {
							out = append(out, costmodel.Knobs{
								Strategy:     strat,
								Batching:     batching,
								Prepared:     prepared,
								CacheEntries: cache,
								Columnar:     compress,
								Compress:     compress,
								Replica:      current.Replica,
								StalenessSec: st,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// Advisor closes the paper's tuning loop for one product shape: it
// observes a Tunable over a metrics window, distills the workload,
// ranks candidate configurations with the analytic cost model, and
// either reports (Diagnose) or plans (Plan → ChangeSet.Apply /
// Rollback). A window is a Metrics delta (snapshot the session's
// Metrics before and after and pass after.Sub(before)), or the full
// Metrics for everything so far.
type Advisor struct {
	// Product is the product shape under traversal (the paper's
	// worldwide scenario, δ=7 β=5 σ=0.6, when zero).
	Product workload.Config
}

// observe is t's observation over window, on the advisor's tree.
func (a Advisor) observe(t Tunable, window netsim.Metrics) Observation {
	o := t.Observe()
	o.Window = window
	p := a.Product
	if p.Depth == 0 {
		p = workload.Config{Depth: 7, Branch: 5, Sigma: 0.6}
	}
	o.Tree = costmodel.Tree{Depth: p.Depth, Branch: p.Branch, Sigma: p.Sigma}
	return o
}

// Recommend ranks every candidate configuration for t's workload over
// window and returns the top-k, each with its predicted per-action cost
// and the predicted saving against t's current configuration.
func (a Advisor) Recommend(t Tunable, window netsim.Metrics) []Recommendation {
	return recommend(Classify(a.observe(t, window)), t.TuneConfig())
}

func recommend(w costmodel.Workload, current costmodel.Knobs) []Recommendation {
	currentSec := costmodel.PredictWorkload(current, w).PerActionSec
	cands := candidates(current)
	recs := make([]Recommendation, 0, len(cands))
	for _, c := range cands {
		sec := costmodel.PredictWorkload(c, w).PerActionSec
		var delta float64
		if currentSec > 0 {
			delta = (1 - sec/currentSec) * 100
		}
		recs = append(recs, Recommendation{Config: c, PredictedSec: sec, CurrentSec: currentSec, DeltaPct: delta})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].PredictedSec < recs[j].PredictedSec })
	if len(recs) > topK {
		recs = recs[:topK]
	}
	return recs
}

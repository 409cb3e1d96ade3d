package costmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"pdmtune/internal/netsim"
)

// This file is the advisor's entry point into the model: Price prices
// one action at one point of the knob lattice, while an advisor must
// price a *configuration* under a *workload* — a mix of reads and
// writes, repeats and cold traversals, possibly at a replica site,
// possibly contended. PredictWorkload blends Price calls into one
// expected-seconds-per-action score that is comparable across arbitrary
// knob combinations.

// Knobs is the one description of a session's tunable configuration:
// what the With… options set at open, what Session.TuneConfig reports
// and ApplyConfig changes on the live connection, what the advisor
// enumerates and a ChangeSet fingerprints, and what Model.Price prices.
// The zero value is the paper's unoptimized baseline (late evaluation,
// text statements, no cache, v1 wire, primary reads). An open-time
// decision a running session cannot change (its transport) is
// deliberately not here.
type Knobs struct {
	// Strategy selects late/early evaluation or the recursive query.
	Strategy Strategy
	// Batching collapses each BFS level (and each modify) into one
	// round trip.
	Batching bool
	// Prepared ships per-node statements as handle + parameters.
	Prepared bool
	// CacheEntries bounds the session's structure cache: 0 none, > 0
	// a bound.
	CacheEntries int
	// Columnar negotiates the v2 columnar result encoding.
	Columnar bool
	// Compress negotiates whole-body response compression.
	Compress bool
	// Replica reads from a site-local replica (writes keep crossing
	// the WAN to the primary). A session reports where it was opened;
	// the location cannot be changed on a live session.
	Replica bool
	// StalenessSec bounds how stale replica reads may be: 0 syncs
	// before every action, larger bounds amortize the sync, negative
	// never syncs at read time. Only read when Replica is set.
	StalenessSec float64
}

// Field is one knob under its canonical name.
type Field struct {
	Name  string
	Value any
}

// Fields lists every knob in declaration order — the one field list the
// rendering, the fingerprint and advisor.Diff walk, so a knob added to
// the struct and to this list is covered by all three.
func (k Knobs) Fields() []Field {
	return []Field{
		{"strategy", k.Strategy},
		{"batching", k.Batching},
		{"prepared", k.Prepared},
		{"cache_entries", k.CacheEntries},
		{"columnar", k.Columnar},
		{"compress", k.Compress},
		{"replica", k.Replica},
		{"staleness_sec", k.StalenessSec},
	}
}

// String renders every knob as name=value in canonical order.
func (k Knobs) String() string {
	var b strings.Builder
	for i, f := range k.Fields() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", f.Name, f.Value)
	}
	return b.String()
}

// Fingerprint returns a stable content hash of the knob set. A
// ChangeSet records the fingerprint of the configuration it was planned
// against and refuses to apply to anything else.
func (k Knobs) Fingerprint() string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:8])
}

// Cached reports whether the configuration runs a structure cache.
func (k Knobs) Cached() bool { return k.CacheEntries > 0 }

// Workload is the observed shape of a live session or fleet — what the
// advisor distills out of a windowed metrics delta: the Model of the
// environment (networks, tree, pull volume, compression ratio; a zero
// Net defaults to the paper's slowest WAN) plus the mix of actions that
// ran in it. All fields describe the environment, none of them a tuning
// decision.
type Workload struct {
	Model
	// Action is the dominant read action of the window (typically MLE).
	Action Action
	// WriteFrac is the fraction of actions that are writes
	// (check-out/check-in), in [0, 1].
	WriteFrac float64
	// RepeatFrac is the fraction of read actions whose (action, target)
	// had been executed before — the cache-hit opportunity, in [0, 1].
	RepeatFrac float64
	// LockWaitSec is the observed lock wait per write action, the PR 6
	// contention counter distilled to seconds.
	LockWaitSec float64
	// ActionsPerSec is the observed action rate (simulated time). It
	// amortizes replica syncs over the actions between two bounds.
	ActionsPerSec float64
	// Coverage is the site's measured subscription coverage: the share
	// of pulled rows its subscription kept. Expand and MLE reads inside
	// it run site-local, the rest fall through to the primary at cold
	// WAN cost, and a Query, where-used or report always falls through
	// (the pulls are priced on the measured SyncBytes, which the
	// subscription already shrank). 0 (or 1) is a full replica.
	Coverage float64
}

// LANNetwork is netsim.LAN — the site-local profile replica reads are
// priced against when the workload does not measure its own.
func LANNetwork() Network { return netsim.LAN() }

// WorkloadEstimate is the priced expectation of one action under a
// candidate configuration.
type WorkloadEstimate struct {
	// ReadSec is the expected seconds of one read action (cold/warm
	// blended, replication amortized).
	ReadSec float64
	// WriteSec is the expected seconds of one write action (fetch
	// phase + flag updates + contention).
	WriteSec float64
	// SyncSec is the amortized replication share already inside
	// ReadSec (zero for primary reads).
	SyncSec float64
	// LockWaitSec is the contention share already inside WriteSec.
	LockWaitSec float64
	// PerActionSec is the ranking score: the write-fraction blend of
	// ReadSec and WriteSec.
	PerActionSec float64
}

// PredictWorkload prices one candidate configuration under an observed
// workload: the expected simulated seconds of one user action, blended
// over the workload's read/write and cold/repeat mix, with replica
// syncs amortized over the staleness bound and the observed lock wait
// charged to every write. Monotone in the environment: deeper or wider
// trees, more lock wait and more sync volume never get cheaper; a
// larger compression ratio, a larger staleness bound and a wider
// subscription never get more expensive.
func PredictWorkload(k Knobs, w Workload) WorkloadEstimate {
	// The pull is amortized over the staleness window below, not
	// charged to every read.
	m := w.Model
	m.SyncBytes = 0
	if m.Net.RateKbps <= 0 {
		m.Net = PaperNetworks()[0]
	}
	wan := m.Net
	price := func(m Model, k Knobs) float64 { return m.Price(k, w.Action).TotalSec }
	// The same wire knobs priced across the WAN: what a fall-through
	// read and every write's fetch phase pay, wherever the session sits.
	atPrimary := k
	atPrimary.Replica = false
	wanCold := price(m, atPrimary)

	// ---- reads: cold/warm blend where the session reads
	readSec := price(m, k)
	if k.Cached() && w.Action != Query {
		warm := m
		warm.Warm = true
		rf := math.Min(math.Max(w.RepeatFrac, 0), 1)
		readSec = (1-rf)*readSec + rf*price(warm, k)
	}

	// ---- partial replication: reads outside the subscription fall
	// through to the primary at cold WAN cost (never cached — the
	// replica does not hold them to validate against). A Query,
	// where-used or report spans the whole product, so it always falls
	// through as one read.
	if cov := w.Coverage; k.Replica && cov > 0 && cov < 1 {
		switch w.Action {
		case Query, WhereUsed, Report:
			readSec = wanCold
		default:
			readSec = cov*readSec + (1-cov)*wanCold
		}
	}

	// ---- replication: one WAN pull per staleness window, amortized
	// over the actions that share it (bound 0: every action pays one).
	// SyncBytes is the payload a pull was measured to ship, already
	// filtered by the site's subscription: a one-packet request up, the
	// payload and a half-filled last packet down.
	var syncSec float64
	if k.Replica && k.StalenessSec >= 0 {
		vol := float64(wan.PacketBytes)*1.5 + w.SyncBytes
		pull := 2*wan.LatencySec + vol*8/(wan.RateKbps*1024)
		actionsPerPull := 1 + k.StalenessSec*math.Max(w.ActionsPerSec, 0)
		syncSec = pull / actionsPerPull
		readSec += syncSec
	}

	// ---- writes: the check actions always cross the WAN to the
	// primary — a fetch phase (the rule check walks the subtree) plus
	// the flag updates, plus the observed contention.
	updateRTs := 2.0 // one UPDATE ... WHERE obid IN (...) per object table
	if k.Batching {
		updateRTs = 1 // the whole modify ships as one wire batch
	}
	p := float64(wan.PacketBytes)
	updVol := packets(DefaultStatementBytes, p)*p + p/2
	update := 2*updateRTs*wan.LatencySec + updVol*8/(wan.RateKbps*1024)
	lockWait := w.LockWaitSec
	writeSec := wanCold + update + lockWait

	wf := math.Min(math.Max(w.WriteFrac, 0), 1)
	return WorkloadEstimate{
		ReadSec:      readSec,
		WriteSec:     writeSec,
		SyncSec:      syncSec,
		LockWaitSec:  lockWait,
		PerActionSec: (1-wf)*readSec + wf*writeSec,
	}
}

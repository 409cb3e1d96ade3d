package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
)

// opKind is one kind of user action.
type opKind uint8

const (
	opMLE opKind = iota
	opExpand
	opQuery
	opWhereUsed
	opReport
	opPair // check-out immediately followed by check-in, same session
	opUpdate
	opECO
	numKinds
)

var kindNames = [numKinds]string{"mle", "expand", "query", "whereused", "report", "checkout_pair", "update", "eco"}

func (k opKind) String() string { return kindNames[k] }

// isWrite reports whether the kind modifies the database.
func (k opKind) isWrite() bool { return k == opPair || k == opUpdate || k == opECO }

// op is one generated user action. The program under test sees nothing
// but these.
type op struct {
	Kind   opKind
	Target int64 // root object, product id (Query, Report) or part
	// Deny marks a check-out of a subtree the set-up session holds: the
	// rule must refuse it (an outcome, not a failure).
	Deny bool
	// State is the ECO's new state, Weight the UPDATE's new value.
	State  string
	Weight float64
}

// stratum is one slice of a workload's mix: a kind, its share of the
// ops, and the objects it draws from, one population per tree level.
type stratum struct {
	Kind  opKind
	Share float64
	// Levels holds the candidate targets, one slice per tree level.
	// The stratum's quota is split over the levels in proportion to
	// their sizes — a uniform draw over the objects, stratified so that
	// every seed gets the same number of roots per level. Subtree cost
	// falls by the branching factor per level, so an unstratified draw
	// would let one extra level-0 root move every per-action mean.
	Levels [][]int64
	// Zipf, when > 0, replaces the uniform draw by a Zipf(s) draw over
	// all levels' objects (strata over the same objects share one
	// ranking, so MLE and Expand have the same hot set).
	Zipf float64
	Deny bool
}

// apportion splits n into len(weights) whole parts proportional to the
// weights (largest remainder), so quotas are a function of n and the
// mix alone, never of the seed.
func apportion(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	out := make([]int, len(weights))
	if total <= 0 || n <= 0 {
		return out
	}
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(weights))
	given := 0
	for i, w := range weights {
		exact := float64(n) * w / total
		out[i] = int(math.Floor(exact))
		given += out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; given < n; k, given = k+1, given+1 {
		out[rems[k%len(rems)].i]++
	}
	return out
}

// cycleSample draws q objects from pop as evenly as a draw can be: every
// object floor(q/len) times, plus a random subset for the remainder.
func cycleSample(pop []int64, q int, rng *rand.Rand) []int64 {
	out := make([]int64, 0, q)
	if len(pop) == 0 {
		return out
	}
	for ; q >= len(pop); q -= len(pop) {
		out = append(out, pop...)
	}
	for _, i := range rng.Perm(len(pop))[:q] {
		out = append(out, pop[i])
	}
	return out
}

// zipfRankSeed fixes which object holds which popularity rank. Like the
// generator seed of the data set it is not the benchmark's -seed:
// popularity is a property of the data, and the cost of an action on the
// hottest object differs so much from object to object that a reseeded
// ranking would move the latency medians by 20% and more.
const zipfRankSeed = 1

// zipfSample draws q objects with Zipf(s) popularity over all levels'
// objects. Rank r gets its expected share of q (apportioned, not
// sampled), so the multiset is the same for every seed; the seed only
// orders it.
func zipfSample(levels [][]int64, q int, s float64) []int64 {
	var ranked []int64
	for _, ids := range levels {
		ranked = append(ranked, ids...)
	}
	rand.New(rand.NewSource(zipfRankSeed)).Shuffle(len(ranked), func(i, j int) {
		ranked[i], ranked[j] = ranked[j], ranked[i]
	})
	weights := make([]float64, len(ranked))
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), s)
	}
	out := make([]int64, 0, q)
	for r, n := range apportion(q, weights) {
		for ; n > 0; n-- {
			out = append(out, ranked[r])
		}
	}
	return out
}

// ecoStates alternate so that consecutive ECOs really change rows. Both
// have the length of the generator's "released": a row's encoded size
// must not depend on how far the other client has got.
var ecoStates = [2]string{"reworked", "released"}

// genOps builds n ops from a client's mix. The same arguments always
// give the same list.
func genOps(strata []stratum, n int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	shares := make([]float64, len(strata))
	for i, s := range strata {
		if len(s.Levels) > 0 {
			shares[i] = s.Share
		}
	}
	ops := make([]op, 0, n)
	for i, q := range apportion(n, shares) {
		s := strata[i]
		var targets []int64
		if s.Zipf > 0 {
			targets = zipfSample(s.Levels, q, s.Zipf)
		} else {
			sizes := make([]float64, len(s.Levels))
			for l, ids := range s.Levels {
				sizes[l] = float64(len(ids))
			}
			for l, ql := range apportion(q, sizes) {
				targets = append(targets, cycleSample(s.Levels[l], ql, rng)...)
			}
		}
		for _, id := range targets {
			ops = append(ops, op{Kind: s.Kind, Target: id, Deny: s.Deny})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		switch ops[i].Kind {
		case opUpdate:
			ops[i].Weight = float64(100+i) / 8
		case opECO:
			ops[i].State = ecoStates[i%2]
		}
	}
	return ops
}

// opsDigest fingerprints the op lists of all clients.
func opsDigest(clients [][]op) string {
	h := sha256.New()
	var buf [8]byte
	for c, ops := range clients {
		h.Write([]byte{byte(c)})
		for _, o := range ops {
			binary.LittleEndian.PutUint64(buf[:], uint64(o.Target))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(o.Weight))
			h.Write(buf[:])
			deny := byte(0)
			if o.Deny {
				deny = 1
			}
			h.Write([]byte{byte(o.Kind), deny})
			h.Write([]byte(o.State))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

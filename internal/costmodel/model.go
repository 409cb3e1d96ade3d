// Package costmodel implements the response-time model of paper
// Section 2 (formulas (1)-(4)) and Section 5.4 (formulas (5)-(6)): the
// accumulated WAN delay of PDM user actions on complete β-ary product
// trees. The model reproduces the paper's Tables 2, 3 and 4 and the bar
// charts of Figures 4 and 5 to printed precision.
//
// Conventions taken from the paper's numbers: packet size and node size
// are in bytes, the data transfer rate dtr is in kbit/s with
// 1 kbit = 1024 bits, and the root object "is considered to be already
// at the client", so a multi-level expand issues one query for the root
// plus one per visible descendant.
//
// The package has one description of a client configuration, Knobs
// (the session facade and the advisor use the same type), and one
// pricing function over it, Model.Price(Knobs, Action): the zero Knobs
// are the paper's formulas, every later lever of the reproduction
// (batching, prepared statements, compression, the structure cache,
// replica reads, the engineering-change actions) is a knob or action
// case of that function, and what is measured rather than chosen is a
// field of the Model. PredictWorkload blends Price calls over an
// observed workload mix for the advisor; Predict, PredictCompressed,
// PredictCached and PredictReplicated are thin compatibility wrappers
// around single lattice points.
package costmodel

import (
	"fmt"
	"math"

	"pdmtune/internal/netsim"
)

// Action is one of the paper's three structure-oriented user actions.
type Action uint8

// The user actions of Table 2: Query retrieves all nodes of a tree
// (without structure information), Expand retrieves the direct children
// of the root ("single-level expand"), MLE retrieves the entire
// structure ("multi-level expand").
const (
	Query Action = iota
	Expand
	MLE
)

// The engineering-change workloads beyond Table 2: WhereUsed is the
// inverse traversal (which assemblies use this part), ECO propagates an
// engineering-change order along that closure, Report is the bulk
// aggregate over one product. They extend the action space without
// entering the paper's table grid (Actions stays in table order).
const (
	WhereUsed Action = iota + 3
	ECO
	Report
)

func (a Action) String() string {
	switch a {
	case Query:
		return "Query"
	case Expand:
		return "Expand"
	case MLE:
		return "MLE"
	case WhereUsed:
		return "WhereUsed"
	case ECO:
		return "ECO"
	case Report:
		return "Report"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Actions lists all actions in table order.
var Actions = []Action{Query, Expand, MLE}

// Strategy selects how the PDM client talks to the database.
type Strategy uint8

// LateEval is the unoptimized navigational access with client-side rule
// evaluation; EarlyEval pushes row conditions into the queries (paper
// Section 4); Recursive compiles a tree action into one SQL:1999
// recursive query combined with early rule evaluation (Section 5).
const (
	LateEval Strategy = iota
	EarlyEval
	Recursive
)

func (s Strategy) String() string {
	switch s {
	case LateEval:
		return "late eval"
	case EarlyEval:
		return "early eval"
	case Recursive:
		return "recursion"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Strategies lists all strategies in figure order.
var Strategies = []Strategy{LateEval, EarlyEval, Recursive}

// Network describes one WAN profile (Table 2's rows): the simulator's
// link, so a measured session and its prediction share one profile.
// PacketBytes is size_p, LatencySec the one-way T_Lat and RateKbps dtr
// in kbit/s (1 kbit = 1024 bits).
type Network = netsim.Link

// Tree describes one product structure scenario (Table 2's columns):
// a complete β-ary tree of depth δ where each branch is visible to the
// user with probability σ.
type Tree struct {
	Name   string
	Depth  int     // δ
	Branch int     // β
	Sigma  float64 // σ
}

// DefaultNodeBytes is the paper's average node size (512 B).
const DefaultNodeBytes = 512

// DefaultPacketBytes is the paper's packet size (4 kB).
const DefaultPacketBytes = 4 * 1024

// geomSum returns Σ_{i=from}^{to} x^i (0 when to < from).
func geomSum(x float64, from, to int) float64 {
	sum := 0.0
	pow := math.Pow(x, float64(from))
	for i := from; i <= to; i++ {
		sum += pow
		pow *= x
	}
	return sum
}

// VisibleNodes returns n_v(t) = Σ_{i=1}^{δ} (σβ)^i — the expected number
// of nodes the user is allowed to see (the root not counted).
func (t Tree) VisibleNodes() float64 {
	return geomSum(t.Sigma*float64(t.Branch), 1, t.Depth)
}

// AllNodes returns Σ_{i=1}^{δ} β^i — every node below the root.
func (t Tree) AllNodes() float64 {
	return geomSum(float64(t.Branch), 1, t.Depth)
}

// TransmittedNodes returns n_t(t) for an action under a strategy:
// how many node records cross the WAN.
func (t Tree) TransmittedNodes(a Action, s Strategy) float64 {
	beta := float64(t.Branch)
	switch a {
	case Query:
		if s == LateEval {
			return t.AllNodes() // rules evaluated at the client: everything is shipped
		}
		return t.VisibleNodes()
	case Expand:
		if s == LateEval {
			return beta
		}
		return t.Sigma * beta
	case MLE:
		switch s {
		case LateEval:
			// Every visible node is expanded and each expand returns all
			// β children (invisible ones are filtered at the client):
			// n_t = β · Σ_{i=0}^{δ-1} (σβ)^i.
			return beta * geomSum(t.Sigma*beta, 0, t.Depth-1)
		default:
			// With early evaluation only visible children come back, so
			// each visible node is transmitted exactly once.
			return t.VisibleNodes()
		}
	}
	return 0
}

// Queries returns q, the number of isolated SQL queries the navigational
// strategies issue for an action.
func (t Tree) Queries(a Action) float64 {
	switch a {
	case Query, Expand:
		return 1
	case MLE:
		// One expand for the root plus one per visible node (leaves are
		// expanded too — the client only learns they are leaves from the
		// empty answer).
		return 1 + t.VisibleNodes()
	}
	return 0
}

// Estimate is a predicted response-time breakdown for one action.
type Estimate struct {
	Queries          float64 // q (or query packets q_r for Recursive)
	Communications   float64 // c
	TransmittedNodes float64 // n_t
	VolumeBytes      float64 // vol
	LatencySec       float64 // c · T_Lat
	TransferSec      float64 // vol / dtr
	TotalSec         float64 // T
}

// Model is what Price is called on: the network and tree scenario of
// formulas (1)-(6) plus every situational input that is measured or
// observed rather than chosen — sizes, the compression ratio, whether
// the action repeats a cached one, the replica site's network and
// pending pull, the shape of an engineering-change action. What the
// client *chooses* is the Knobs argument.
type Model struct {
	Net  Network
	Tree Tree
	// CompressionRatio is the measured response shrink factor of the
	// columnar v2 encoding plus deflate (DefaultCompressionRatio when
	// 0; <= 1 prices a session that negotiated nothing). Only read
	// under Knobs.Compress.
	CompressionRatio float64
	// RecursiveQueryPackets is q_r, the packets needed to ship the
	// recursive query text to the server (1 when 0, as in the paper).
	RecursiveQueryPackets float64
	// StatementBytes is the assumed per-statement size inside a batch
	// frame (DefaultStatementBytes when 0); only read under
	// Knobs.Batching.
	StatementBytes float64
	// Warm prices the repeat of an action whose structure is already in
	// the client cache; only read when the knobs run a cache.
	Warm bool
	// LocalNet is the site-local profile a Knobs.Replica read runs on
	// (LANNetwork when zero); SyncBytes is the row-delta volume of the
	// replication pull that precedes it across Net (0: the replica is
	// already synced and the WAN contributes nothing).
	LocalNet  Network
	SyncBytes float64
	// Chain is the ancestor-chain depth a WhereUsed or ECO action
	// walks.
	Chain int
}

// orDefault returns v when it was configured (> 0), else def.
func orDefault(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// Assumed sizes of the exchanges the paper's model does not itemize.
const (
	// DefaultStatementBytes is one statement inside a batch frame — a
	// navigational expand query with injected rule predicates is a few
	// hundred bytes of SQL text.
	DefaultStatementBytes = 512
	// DefaultPreparedStatementBytes is one prepared execution inside a
	// batch frame: a 1-byte tag, a 4-byte handle, a parameter count and
	// two integer parameters plus sub-frame framing — a few dozen
	// bytes, independent of the SQL text length.
	DefaultPreparedStatementBytes = 32
	// DefaultCompressionRatio is the response-volume ratio measured for
	// the columnar v2 encoding plus deflate on the paper's node rows
	// (repeating type/state strings, near-monotone ids): the cold-path
	// node records shrink by roughly an order of magnitude.
	DefaultCompressionRatio = 10
	// DefaultValidateEntryBytes is one cache-validate entry: an 8-byte
	// object id plus its 8-byte fetch-time version stamp.
	DefaultValidateEntryBytes = 16
)

// packets rounds a request of the given size up to whole packets (at
// least one — an empty request still costs its packet).
func packets(bytes, sizeP float64) float64 {
	return math.Max(1, math.Ceil(bytes/sizeP))
}

// Price is the model's one pricing function: the response-time
// estimate of action a under the client configuration k, following
// formulas (1)-(6) at the zero Knobs and extending them knob by knob.
// Every request is rounded up to whole packets, every response pays the
// model's half-filled last packet, and each exchange costs two
// communications.
//
//   - Strategy picks n_t and, for Recursive tree actions, formula (6):
//     one combined query, one result set.
//   - Batching ships each BFS level of a navigational MLE as one
//     exchange: two communications per tree level instead of two per
//     statement, the statements packetized together. Single-statement
//     actions and the recursive strategy have nothing to batch.
//   - Prepared (with Batching) shrinks each batched statement from SQL
//     text to handle + parameters, at the cost of one prepare exchange.
//     Under packet accounting the saving only materializes once a
//     level's statements span multiple packets, as on the real wire.
//   - Compress (with or without Columnar — the model prices their joint
//     measured ratio) shrinks the response node records to
//     1/CompressionRatio; requests and latency are untouched.
//   - A cache (CacheEntries > 0) costs nothing cold; on a Warm repeat a
//     structure action collapses to one validate exchange carrying the
//     (id, version) pairs of every cached object and no node records.
//     The set-oriented Query is not cached.
//   - Replica runs the read on LocalNet and charges the pull of
//     SyncBytes that preceded it to Net. Writes are not priced here: a
//     write crosses the WAN exactly as at the primary.
//
// StalenessSec and the site's measured Workload.Coverage describe how a
// replica's pulls amortize over a stream of actions; PredictWorkload
// blends them.
//
// WhereUsed under Recursive is one exchange, the upward recursive
// statement, carrying the records of the Chain ancestors; the
// navigational strategies walk it level by level — one upward level
// query per ancestor level, the empty level that ends the walk and one
// record fetch of the Chain ancestors. ECO is one call of the server's
// ECO procedure under every strategy and Report one aggregate
// statement: ids and counts only, which fit the response's last packet.
func (m Model) Price(k Knobs, a Action) Estimate {
	net := m.Net
	if k.Replica {
		if net = m.LocalNet; net.RateKbps <= 0 {
			net = LANNetwork()
		}
	}
	sizeP := float64(net.PacketBytes)
	sigmaBeta := m.Tree.Sigma * float64(m.Tree.Branch)
	treeAction := a == Query || a == Expand || a == MLE

	var est Estimate
	switch {
	case treeAction && a != Query && k.Cached() && m.Warm:
		// Entries validated: the root plus every visible node for a
		// tree, the root plus its visible children for a single expand.
		entries := 1 + m.Tree.VisibleNodes()
		if a == Expand {
			entries = 1 + sigmaBeta
		}
		est.Communications = 2
		est.VolumeBytes = packets(entries*DefaultValidateEntryBytes, sizeP)*sizeP + sizeP/2

	case a == MLE && k.Batching && k.Strategy != Recursive:
		// The prepared execution size replaces the SQL text size
		// outright — a configured StatementBytes describes text mode.
		stmtBytes := orDefault(m.StatementBytes, DefaultStatementBytes)
		if k.Prepared {
			stmtBytes = DefaultPreparedStatementBytes
		}
		// Parents expanded per BFS level: 1 root at depth 0, then the
		// visible (σβ)^i nodes of depths 1..δ (leaves included — the
		// empty answer is how the client learns they are leaves).
		levelParents := 1.0
		for lvl := 0; lvl <= m.Tree.Depth; lvl++ {
			est.Communications += 2
			est.Queries += levelParents
			est.VolumeBytes += packets(levelParents*stmtBytes, sizeP)*sizeP + sizeP/2
			levelParents *= sigmaBeta
		}
		est.TransmittedNodes = m.Tree.TransmittedNodes(a, k.Strategy)
		est.VolumeBytes += est.TransmittedNodes * DefaultNodeBytes
		if k.Prepared {
			// The prepare exchange: the statement text up (one packet),
			// the handle back (the half-filled response packet).
			est.Queries++
			est.Communications += 2
			est.VolumeBytes += sizeP * 1.5
		}

	default:
		// One exchange per statement (formulas (1)-(3)), or formula (6):
		// q_r query packets, one result set, c = 2.
		q, n := 0.0, 0.0
		recursive := k.Strategy == Recursive && treeAction && a != Expand
		switch {
		case recursive:
			q, n = orDefault(m.RecursiveQueryPackets, 1), m.Tree.TransmittedNodes(a, Recursive)
		case treeAction:
			// A single-level expand is a single early-evaluated query
			// under the recursive strategy too.
			q, n = m.Tree.Queries(a), m.Tree.TransmittedNodes(a, min(k.Strategy, EarlyEval))
		case a == WhereUsed && k.Strategy == Recursive:
			q, n = 1, float64(m.Chain)
		case a == WhereUsed:
			q, n = float64(m.Chain)+2, float64(m.Chain)
		case a == ECO, a == Report:
			q = 1
		}
		est.Queries, est.TransmittedNodes = q, n
		est.Communications = 2 * q
		if recursive {
			est.Communications = 2
		}
		est.VolumeBytes = q*sizeP + n*DefaultNodeBytes + q*sizeP/2
	}
	if ratio := orDefault(m.CompressionRatio, DefaultCompressionRatio); k.Compress && ratio > 1 {
		est.VolumeBytes -= est.TransmittedNodes * DefaultNodeBytes * (1 - 1/ratio)
	}

	est.LatencySec = est.Communications * net.LatencySec
	est.TransferSec = est.VolumeBytes * 8 / (net.RateKbps * 1024)
	if k.Replica && m.SyncBytes > 0 {
		// One sync round trip on the WAN: a one-packet request up, the
		// delta volume (plus the half-filled last packet) down.
		wan := m.Net
		p := float64(wan.PacketBytes)
		vol := p + m.SyncBytes + p/2
		est.Communications += 2
		est.VolumeBytes += vol
		est.LatencySec += 2 * wan.LatencySec
		est.TransferSec += vol * 8 / (wan.RateKbps * 1024)
	}
	est.TotalSec = est.LatencySec + est.TransferSec
	return est
}

// The four signatures below predate Price; each names one lattice point.

// Predict prices the paper's own configuration: strategy s, no lever.
//
// Deprecated: kept for benchmark/, its only caller; use
// Price(Knobs{Strategy: s}, a).
func (m Model) Predict(a Action, s Strategy) Estimate { return m.Price(Knobs{Strategy: s}, a) }

// PredictCompressed prices a batched action at a measured response
// compression ratio (<= 1: nothing negotiated).
//
// Deprecated: kept for benchmark/, its only caller; use Price with
// Model.CompressionRatio set.
func (m Model) PredictCompressed(a Action, s Strategy, ratio float64) Estimate {
	m.CompressionRatio = ratio
	return m.Price(Knobs{Strategy: s, Batching: true, Compress: ratio > 1}, a)
}

// PredictCached prices a batched action through the structure cache,
// cold or as a warm repeat.
//
// Deprecated: kept for benchmark/, its only caller; use Price with
// Model.Warm set.
func (m Model) PredictCached(a Action, s Strategy, warm bool) Estimate {
	m.Warm = warm
	return m.Price(Knobs{Strategy: s, Batching: true, CacheEntries: 1}, a)
}

// PredictReplicated prices a read at a replica site on the local
// network after a pull of syncBytes across m.Net.
//
// Deprecated: kept for benchmark/, its only caller; use Price with
// Model.LocalNet and Model.SyncBytes set.
func (m Model) PredictReplicated(a Action, s Strategy, local Network, syncBytes float64) Estimate {
	m.LocalNet, m.SyncBytes = local, syncBytes
	return m.Price(Knobs{Strategy: s, Replica: true}, a)
}

// SavingPct returns the percentage saving of opt relative to base.
func SavingPct(base, opt Estimate) float64 {
	if base.TotalSec == 0 {
		return 0
	}
	return (1 - opt.TotalSec/base.TotalSec) * 100
}

// ---------------------------------------------------------------------------
// The paper's concrete scenarios

// PaperNetworks returns the three WAN profiles of Tables 2-4, in row
// order: 256 kbit/s with 150 ms, 512 kbit/s with 150 ms, 1024 kbit/s
// with 50 ms; all with 4 kB packets.
func PaperNetworks() []Network {
	return []Network{
		{Name: "256 kbit/s, 150 ms", PacketBytes: DefaultPacketBytes, LatencySec: 0.15, RateKbps: 256},
		{Name: "512 kbit/s, 150 ms", PacketBytes: DefaultPacketBytes, LatencySec: 0.15, RateKbps: 512},
		{Name: "1024 kbit/s, 50 ms", PacketBytes: DefaultPacketBytes, LatencySec: 0.05, RateKbps: 1024},
	}
}

// PaperScenarios returns the three product-tree scenarios of Tables 2-4,
// in column order: (δ=3, β=9), (δ=9, β=3), (δ=7, β=5), all with σ=0.6.
func PaperScenarios() []Tree {
	return []Tree{
		{Name: "δ=3, β=9, σ=0.6", Depth: 3, Branch: 9, Sigma: 0.6},
		{Name: "δ=9, β=3, σ=0.6", Depth: 9, Branch: 3, Sigma: 0.6},
		{Name: "δ=7, β=5, σ=0.6", Depth: 7, Branch: 5, Sigma: 0.6},
	}
}

// TableCells computes the full [network][scenario][action] grid of
// estimates for a strategy — the body of Table 2 (LateEval), Table 3
// (EarlyEval) and Table 4 (Recursive, MLE column).
func TableCells(s Strategy) [][][]Estimate {
	nets := PaperNetworks()
	scens := PaperScenarios()
	out := make([][][]Estimate, len(nets))
	for ni, net := range nets {
		out[ni] = make([][]Estimate, len(scens))
		for si, tree := range scens {
			row := make([]Estimate, len(Actions))
			for ai, a := range Actions {
				row[ai] = Model{Net: net, Tree: tree}.Price(Knobs{Strategy: s}, a)
			}
			out[ni][si] = row
		}
	}
	return out
}

// FigureTotals computes one bar chart (Figures 4 and 5): response-time
// totals for every strategy and action at a fixed scenario and network.
func FigureTotals(net Network, tree Tree) [3][3]float64 {
	var out [3][3]float64
	for si, s := range Strategies {
		for ai, a := range Actions {
			out[si][ai] = Model{Net: net, Tree: tree}.Price(Knobs{Strategy: s}, a).TotalSec
		}
	}
	return out
}

// Figure4 returns the bar chart of paper Figure 4: δ=9, β=3, σ=0.6,
// T_Lat = 150 ms, dtr = 512 kbit/s.
func Figure4() [3][3]float64 {
	return FigureTotals(PaperNetworks()[1], PaperScenarios()[1])
}

// Figure5 returns the bar chart of paper Figure 5: δ=7, β=5, σ=0.6,
// T_Lat = 150 ms, dtr = 256 kbit/s.
func Figure5() [3][3]float64 {
	return FigureTotals(PaperNetworks()[0], PaperScenarios()[2])
}

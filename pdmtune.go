// Package pdmtune reproduces "Tuning an SQL-Based PDM System in a
// Worldwide Client/Server Environment" (Müller, Dadam, Enderle, Feltes;
// ICDE 2001): a Product Data Management system on top of a from-scratch
// relational engine, a simulated wide-area network between client and
// server, and the paper's two tuning approaches — early rule evaluation
// and SQL:1999 recursive queries — as selectable client strategies.
//
// The package is a thin facade over the internal building blocks:
//
//   - internal/minisql    — the SQL engine (parser, executor, recursion)
//   - internal/wire       — the client/server protocol
//   - internal/netsim     — the WAN simulator (latency, bandwidth, packets)
//   - internal/workload   — β-ary product-structure generation
//   - internal/core       — the PDM layer (rules, query modification,
//     recursive queries, actions) — the paper's contribution
//   - internal/costmodel  — the paper's analytic response-time model
//
// Quickstart:
//
//	sys := pdmtune.NewSystem(nil)
//	prod, _ := sys.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 4, Sigma: 0.6})
//	sess, _ := sys.Open(
//	    pdmtune.WithLink(pdmtune.Intercontinental()),
//	    pdmtune.WithUser(pdmtune.DefaultUser("scott")),
//	    pdmtune.WithStrategy(pdmtune.Recursive),
//	)
//	res, _ := sess.MultiLevelExpand(context.Background(), prod.RootID)
//	fmt.Println(res.Visible, "nodes in", sess.Metrics().TotalSec(), "simulated seconds")
//
// One System serves many concurrent Sessions; each Session is one
// user's configured connection. For the paper's worldwide deployment,
// NewCluster adds named replica sites around the primary System:
// Cluster.OpenAt opens sessions that read from a site-local replica
// (kept current by epoch-based delta syncs) and write to the primary,
// with WithMaxStaleness selecting bounded-staleness reads.
// Everything tunable about a session is one value, TuneConfig (the cost
// model's Knobs): the options below write into it, Session.TuneConfig
// reports it, Session.ApplyConfig re-tunes the live session to it, the
// Advisor enumerates and ranks it, and costmodel.Model.Price prices it.
// The wire-level tuning levers compose as
// options: WithBatching(true) collapses each BFS level into one round
// trip, WithPreparedStatements(true) ships the per-node SQL text once
// and a handle + parameters afterwards, WithCache(size) keeps
// validated structures at the client so a repeated traversal costs one
// version-check round trip instead of a re-fetch, and WithTransport
// substitutes a real (e.g. TCP) transport for the simulation. Every
// action takes a context.Context and can be cancelled between WAN round
// trips.
package pdmtune

import (
	"pdmtune/internal/cache"
	"pdmtune/internal/core"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql"
	"pdmtune/internal/netsim"
	"pdmtune/internal/topology"
	"pdmtune/internal/wire"
	"pdmtune/internal/workload"
)

// Re-exported types: the public API of the reproduction.
type (
	// Client is the PDM client executing user actions over the WAN.
	Client = core.Client
	// Rule is a PDM access rule (user, action, object type, condition).
	Rule = core.Rule
	// RuleTable is the client-side store of translated rules.
	RuleTable = core.RuleTable
	// UserContext carries the user's environment (options, effectivity).
	UserContext = core.UserContext
	// Tree is a reassembled product structure.
	Tree = core.Tree
	// Node is one product object as presented to the user.
	Node = core.Node
	// ActionResult reports one user action and its WAN cost.
	ActionResult = core.ActionResult
	// CheckOutResult reports a check-out/check-in.
	CheckOutResult = core.CheckOutResult
	// ECOResult reports an engineering-change-order propagation.
	ECOResult = core.ECOResult
	// ReportResult reports a bulk report's aggregates.
	ReportResult = core.ReportResult
	// ConflictError reports a check-out that lost a first-wins race
	// against a concurrent writer (match with errors.As).
	ConflictError = core.ConflictError
	// Link describes a WAN profile.
	Link = netsim.Link
	// Meter accumulates simulated WAN metrics.
	Meter = netsim.Meter
	// Metrics is the accumulated traffic of a meter.
	Metrics = netsim.Metrics
	// Strategy selects late evaluation, early evaluation or recursion.
	Strategy = costmodel.Strategy
	// Action is one of the paper's user actions (Query, Expand, MLE).
	Action = costmodel.Action
	// ProductConfig parameterizes product-structure generation.
	ProductConfig = workload.Config
	// Product is the generated ground truth.
	Product = workload.Product
	// Value is one SQL value (for raw Exec parameters).
	Value = minisql.Value
	// Response is the server's answer to a raw Exec.
	Response = wire.Response
	// Cache is a session's client-side structure cache (WithCache): an
	// LRU-bounded store of version-stamped expand pages and recursive
	// trees.
	Cache = cache.Store
)

// Strategy and action constants, re-exported from the cost model.
const (
	LateEval  = costmodel.LateEval
	EarlyEval = costmodel.EarlyEval
	Recursive = costmodel.Recursive

	Query  = costmodel.Query
	Expand = costmodel.Expand
	MLE    = costmodel.MLE

	// The partial-replication workloads: inverse traversal, engineering
	// change order, bulk report.
	WhereUsed = costmodel.WhereUsed
	ECO       = costmodel.ECO
	Report    = costmodel.Report
)

// Condition kinds for rules.
const (
	KindRow             = core.KindRow
	KindForAllRows      = core.KindForAllRows
	KindExistsStructure = core.KindExistsStructure
	KindTreeAggregate   = core.KindTreeAggregate
)

// DefaultUser returns a user context matching the generated workload
// (structure option "base", full effectivity range).
func DefaultUser(name string) UserContext { return core.DefaultUser(name) }

// StandardRules returns the workload's structure-option/effectivity
// rules plus the paper's check-out rule.
func StandardRules() *RuleTable {
	rt := core.StandardRules()
	rt.MustAdd(core.CheckOutRule())
	return rt
}

// Intercontinental returns the paper's slowest WAN profile (256 kbit/s,
// 150 ms, 4 kB packets).
func Intercontinental() Link { return netsim.Intercontinental() }

// LAN returns a local-area profile for before/after comparisons.
func LAN() Link { return netsim.LAN() }

// System bundles one PDM database server with its rule table. A
// System is the original primary of its Cluster: every System belongs
// to exactly one cluster (a site-less one when created via NewSystem),
// and System.Open is Cluster.OpenAt at the current primary.
type System struct {
	DB     *minisql.DB
	Server *wire.Server
	Rules  *RuleTable
	// cluster is the topology this system is the original primary of.
	cluster *Cluster
}

// NewSystem creates an empty single-server PDM system. rules may be
// nil for the standard set; the server-side procedures enforce the
// same rules. It is a thin wrapper over NewCluster with no replica
// sites — a one-site cluster consisting of just the primary — kept as
// the convenient entry point for every non-replicated scenario.
func NewSystem(rules *RuleTable) *System {
	cl, err := NewCluster(rules)
	if err != nil {
		// Unreachable: a cluster without site configs cannot fail.
		panic(err)
	}
	return cl.Primary()
}

// newPrimarySystem builds the primary's database and rule table, and
// the cluster node fronting them; the system shares the node's server.
func newPrimarySystem(rules *RuleTable) (*System, *topology.Site) {
	if rules == nil {
		rules = StandardRules()
	}
	db := minisql.NewDB()
	core.RegisterProcedures(db, rules)
	node := topology.NewPrimary(db)
	return &System{
		DB:     db,
		Server: node.Server(),
		Rules:  rules,
	}, node
}

// Cluster returns the cluster this system is the original primary of (a
// site-less cluster for NewSystem-created systems).
func (s *System) Cluster() *Cluster { return s.cluster }

// LoadProduct generates a product structure into the system's database
// and returns its ground truth.
func (s *System) LoadProduct(cfg ProductConfig) (*Product, error) {
	return workload.Generate(s.DB.NewSession(), cfg)
}

// LoadPaperExample loads the paper's Figure 2 example data.
func (s *System) LoadPaperExample() error {
	return workload.LoadPaperExample(s.DB.NewSession())
}

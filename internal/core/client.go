package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pdmtune/internal/cache"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/exec"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// Client is the PDM client. It executes the paper's user actions against
// a (remote) database server under one of the three strategies the paper
// compares; every statement crosses the WAN transport and is charged to
// the meter. All actions take a context: cancelling it between round
// trips aborts the action with ctx.Err(), and only the round trips that
// actually happened are charged.
//
// All read traffic flows through the client's fetcher (see fetch.go):
// by default the plain wire fetcher, optionally decorated with the
// version-validated structure cache (Apply with CacheEntries > 0).
// The connections it runs over are one Route: a read client, and a
// write client to the primary when the client reads at a replica site.
// The client replaces its route whole, on its own goroutine, when the
// route's Follow hook reports a newer one.
type Client struct {
	// route is the client's connections, loaded by every exchange and
	// replaced whole by SetRoute and follow.
	route atomic.Pointer[Route]
	meter *netsim.Meter
	rules *RuleTable
	user  UserContext
	// knobs is the client's configuration: read by every action, changed
	// only by Apply (and, for the location, by SetSiteSync).
	knobs costmodel.Knobs

	// site triggers replica syncs at read time (nil for single-server
	// clients); see SetSiteSync and beginAction.
	site *siteRouting

	// fetch is the unified read path: wireFetcher, or cachedFetcher
	// wrapping it when a structure cache is configured.
	fetch fetcher
	// types is the client's private LRU-bounded object-type cache. It
	// is deliberately NOT the structure store: type entries arrive one
	// per received row and would otherwise crowd whole structure pages
	// out of the configured bound.
	types *cache.Store
	// structs is the client's own structure cache store, nil unless
	// CacheEntries > 0. It holds entries of one strategy and one rule
	// table generation: dropCompiled empties it when either changes.
	// Write actions invalidate their objects here.
	structs *cache.Store

	// local evaluates rule predicates client-side (late evaluation).
	local *exec.Context
	// preparedSQL holds the `?`-form (and rule-modified) text of every
	// statement the client repeats; see statement.go.
	preparedSQL map[stmtKey]preparedStmt
	// predicates holds the compiled client-side rule predicates; see
	// treecond.go.
	predicates map[predKey]*predicate
	// rulesGen is the rule table generation both tables were built
	// from; beginAction recompiles when the table has moved on.
	rulesGen uint64
	// seen remembers the (action, target) pairs the client completed
	// most recently, so countAction can flag repeats — the
	// workload-shape signal that separates a repeat-heavy session (a
	// structure cache would pay off) from a cold scan, visible even
	// without a cache.
	seen *cache.Store
}

// typeCacheSize bounds the private object-type cache of a client
// without a configured structure cache. The old implementation kept an
// unbounded id→type map — a silent memory leak over a long session.
const typeCacheSize = 4096

// seenActionsSize bounds the repeat detector the same way: a pair not
// repeated within this many distinct actions counts as new again.
const seenActionsSize = 4096

// NewClient connects a PDM client to a transport. meter may be nil (no
// accounting); rules may be empty.
func NewClient(tr wire.Transport, meter *netsim.Meter, rules *RuleTable, user UserContext, strategy costmodel.Strategy) *Client {
	if rules == nil {
		rules = NewRuleTable()
	}
	c := &Client{
		meter: meter,
		rules: rules,
		user:  user,
		knobs: costmodel.Knobs{Strategy: strategy, StalenessSec: -1},
		local: &exec.Context{Funcs: minisql.BuiltinFuncs()},
		types: cache.New(typeCacheSize),
		seen:  cache.New(seenActionsSize),
	}
	w := wire.NewClient(tr)
	c.route.Store(&Route{Read: w, Write: w})
	c.dropCompiled()
	c.rebuildFetch()
	return c
}

// dropCompiled empties the statement and predicate tables and the
// structure cache, and records the rule table generation they are
// rebuilt from.
func (c *Client) dropCompiled() {
	c.preparedSQL = map[stmtKey]preparedStmt{}
	c.predicates = map[predKey]*predicate{}
	c.rulesGen = c.rules.gen.Load()
	if c.structs != nil {
		c.structs = cache.New(c.structs.Cap())
	}
}

// beginAction starts one user action. Rules added since the last action
// take effect here: the compiled tables and the cached structures are
// dropped and the read path rebuilt over the emptied store.
// A client at a replica site then applies its staleness bound: the
// site is synced when it is stale beyond the bound, before the action
// reads anything — cache validation included, or a bounded-staleness
// session could validate a warm tree against a replica that is itself
// beyond the bound. Unbounded sessions never sync here and read
// whatever the site last pulled ("read your own site").
func (c *Client) beginAction(ctx context.Context) error {
	if c.rules.gen.Load() != c.rulesGen {
		c.dropCompiled()
		c.rebuildFetch()
	}
	c.fetch.BeginAction()
	if c.site == nil || c.knobs.StalenessSec < 0 {
		return nil
	}
	return c.site.syncer.SyncIfStale(ctx, time.Duration(c.knobs.StalenessSec*float64(time.Second)))
}

// rebuildFetch composes the client's read path from the configured
// layers: the wire fetcher at the bottom, the structure cache over it
// when one is set, and the partial-replication fall-through on top when
// the client reads from a site that can be subscription-bounded.
func (c *Client) rebuildFetch() {
	var f fetcher = &wireFetcher{c: c}
	if c.structs != nil {
		f = &cachedFetcher{fetcher: f, c: c, store: c.structs}
	}
	if c.site != nil && c.site.holds != nil {
		// Reads outside the site's subscription re-issue against the
		// primary. Above the cache: a fallen-through page must not be
		// validated against the replica, which does not hold it.
		f = &fallThroughFetcher{inner: f, primary: &wireFetcher{c: c, primary: true}, holds: c.site.holds}
	}
	c.fetch = f
}

// Knobs reports the configuration the client runs: the open-time
// defaults (its strategy, its location, no staleness bound), and
// otherwise what the last Apply brought it to. The wire encodings are
// the requested ones; WireCaps reports what the server accepted.
func (c *Client) Knobs() costmodel.Knobs { return c.knobs }

// Strategy reports the client's access strategy.
func (c *Client) Strategy() costmodel.Strategy { return c.knobs.Strategy }

// WireCaps reports the wire encodings the server accepted at the
// client's last capability handshake.
func (c *Client) WireCaps() wire.Caps { return c.route.Load().Read.Caps() }

// Apply reconfigures the live client to k. Strategy, batching, prepared
// statements and the cache flip locally (a new strategy drops the
// compiled statements, which embed its rule modification, and the
// structures cached under it); changed wire encodings cost one
// renegotiation round trip; the staleness bound re-times a replica
// client's read-time syncs. A bound without a replica is recorded, so
// Knobs echoes k and a change set rolls back wherever it applied. A new
// read location is refused before anything changes.
func (c *Client) Apply(ctx context.Context, k costmodel.Knobs) error {
	c.follow(false)
	cur := c.knobs
	if k.Replica != cur.Replica {
		return errors.New("core: a session reads where it was opened; open a new session (Cluster.OpenAt) to change its site")
	}
	if k.Columnar != cur.Columnar || k.Compress != cur.Compress {
		if _, err := c.route.Load().Read.Negotiate(ctx, wire.Caps{Columnar: k.Columnar, Compress: k.Compress}); err != nil {
			return fmt.Errorf("core: negotiating wire encodings: %w", err)
		}
	}
	if k.CacheEntries != cur.CacheEntries {
		c.structs = nil
		if k.CacheEntries > 0 {
			c.structs = cache.New(k.CacheEntries)
		}
	}
	c.knobs = k
	if k.Strategy != cur.Strategy {
		c.dropCompiled()
	}
	if k.Strategy != cur.Strategy || k.CacheEntries != cur.CacheEntries {
		c.rebuildFetch()
	}
	return nil
}

// Cache returns the client's structure cache store (nil when none is
// configured).
func (c *Client) Cache() *cache.Store { return c.structs }

// Route is a client's connections. Read carries the reads; Write
// carries check-out/check-in updates, CALLs and raw DML, and is Read
// unless the client reads at a replica site other than the primary, in
// which case it reaches the primary and WriteMeter (nil otherwise)
// charges its link. A Route is never modified once installed.
//
// Follow, when set, reports the route the client should run over
// instead (nil: this one is current). The client asks it at the
// entry of every action, raw Exec and Apply, and with fenced set after
// a write a fence refused, and installs the answer whole; an action in
// flight finishes on the route it started on. Nil for a route the caller built
// over its own transport, which never moves.
type Route struct {
	Read, Write *wire.Client
	WriteMeter  *netsim.Meter
	Follow      func(fenced bool) *Route
}

// Route returns the client's current connections.
func (c *Client) Route() Route { return *c.route.Load() }

// SetRoute installs the client's connections, whole.
func (c *Client) SetRoute(r *Route) { c.route.Store(r) }

// follow installs the route the current one's Follow hook reports.
func (c *Client) follow(fenced bool) {
	if f := c.route.Load().Follow; f != nil {
		if r := f(fenced); r != nil {
			c.route.Store(r)
		}
	}
}

// start opens one action: the client follows its route first, so the
// action is counted and metered on the route it runs over, and the
// meters are snapshot for the action's delta.
func (c *Client) start() netsim.Metrics {
	c.follow(false)
	return c.snapshot()
}

// withWrite runs one write operation against the current write path.
// When the op comes back fenced — the primary was deposed mid-flight —
// the fenced frame provably never executed, so once the promotion that
// fenced it is done and has moved the client to a new write client the
// op is re-issued once against the new primary; a fenced error with
// nowhere new to go is returned to the caller.
func (c *Client) withWrite(op func(w *wire.Client) error) error {
	w := c.route.Load().Write
	err := op(w)
	var fe *wire.FencedError
	if err == nil || !errors.As(err, &fe) {
		return err
	}
	c.follow(true)
	if w2 := c.route.Load().Write; w2 != w {
		return op(w2)
	}
	return err
}

// Syncer pulls a replica site forward from its primary. It is
// implemented by topology.Site; the client only needs the read-time
// staleness hook.
type Syncer interface {
	// SyncIfStale pulls the delta above the replica's last-seen epoch
	// when the last successful sync is older than bound (always when
	// bound is 0). Implementations serialize concurrent calls.
	SyncIfStale(ctx context.Context, bound time.Duration) error
}

// HoldsSource reports what a partial replica holds: implemented by
// topology.Site for subscription-bounded sites. A full replica reports
// Partial() == false and holds everything.
type HoldsSource interface {
	// Partial reports whether the replica is subscription-bounded.
	Partial() bool
	// Holds reports whether the replica holds the structure rows of the
	// given object id.
	Holds(id int64) bool
}

// siteRouting is the client's view of its replica site: the syncer,
// and holds when the site can be subscription-bounded, enabling the
// fall-through read layer.
type siteRouting struct {
	syncer Syncer
	holds  HoldsSource
}

// SetSiteSync marks the client as reading from a replica site (Knobs
// reports Replica). At the start of every action the site is synced
// when its last sync is older than the StalenessSec knob (0: before
// every action; negative, the default: never — reads serve whatever
// the site last synced, the paper-faithful "read your own site"
// semantics). The write path is unaffected (see Route).
func (c *Client) SetSiteSync(s Syncer) {
	c.site = nil
	if s != nil {
		c.site = &siteRouting{syncer: s}
		c.site.holds, _ = s.(HoldsSource)
	}
	c.knobs.Replica = s != nil
	c.rebuildFetch()
}

// invalidateCache drops every cached entry depending on the given
// objects — the no-round-trip invalidation a write action performs on
// its own modifications.
func (c *Client) invalidateCache(ids []int64) {
	if c.structs != nil && len(ids) > 0 {
		c.structs.Invalidate(ids...)
	}
}

// invalidateTree invalidates every node of a modified subtree. The
// (O(n)) id walk only happens when a cache is actually configured.
func (c *Client) invalidateTree(t *Tree) {
	if c.structs != nil {
		c.structs.Invalidate(treeIDs(t)...)
	}
}

// User reports the client's user context.
func (c *Client) User() UserContext { return c.user }

// Rules exposes the client's rule table (e.g. for administration).
func (c *Client) Rules() *RuleTable { return c.rules }

// Metrics returns the accumulated WAN metrics — the read path's plus,
// for a split client, the write path's.
func (c *Client) Metrics() netsim.Metrics { return c.snapshot() }

// ResetMetrics clears the meters (between actions).
func (c *Client) ResetMetrics() {
	if c.meter != nil {
		c.meter.Reset()
	}
	if wm := c.route.Load().WriteMeter; wm != nil && wm != c.meter {
		wm.Reset()
	}
}

// Exec ships one raw SQL statement over the WAN (administration, DDL,
// loading). Rule machinery is not applied, and the structure cache is
// not invalidated — a raw write is caught by the next validate-on-use
// exchange instead. A read goes through the fetcher like any action's:
// at a full replica it runs against the site, at a subscription-bounded
// one at the primary as a fall-through read. Everything else (DML, DDL,
// CALL, transaction control) goes to the primary.
func (c *Client) Exec(ctx context.Context, sql string, params ...minisql.Value) (*wire.Response, error) {
	c.follow(false)
	if wire.ReadOnlySQL(sql) {
		return c.fetch.Exec(ctx, &wire.Request{SQL: sql, Params: params})
	}
	var resp *wire.Response
	err := c.withWrite(func(w *wire.Client) error {
		var err error
		resp, err = w.Exec(ctx, sql, params...)
		return err
	})
	return resp, err
}

func (c *Client) modifier() *Modifier { return &Modifier{Rules: c.rules, User: c.user} }

func (c *Client) snapshot() netsim.Metrics {
	var m netsim.Metrics
	if c.meter != nil {
		m = c.meter.Snapshot()
	}
	if wm := c.route.Load().WriteMeter; wm != nil && wm != c.meter {
		m = m.Add(wm.Snapshot())
	}
	return m
}

func (c *Client) delta(before netsim.Metrics) netsim.Metrics {
	return c.snapshot().Sub(before)
}

// countAction charges one completed user action to the meter that
// carried it, flagging repeats of the same (action, target) pair —
// the per-kind counters the advisor distills its workload from.
func (c *Client) countAction(action string, target int64, write bool) {
	key := cache.Key{ID: target, Action: action}
	_, repeat := c.seen.Get(key)
	c.seen.Put(key, cache.Entry{})
	m := c.meter
	if write {
		m = c.primaryMeter()
	}
	if m == nil {
		return
	}
	done := netsim.Metrics{ReadActions: 1}
	if write {
		done = netsim.Metrics{WriteActions: 1}
	}
	if repeat {
		done.RepeatActions = 1
	}
	m.Add(done)
}

// primaryMeter is the meter of the link to the primary, which writes,
// fall-through reads and write conflicts are charged to: the write
// path's own meter when it has one, the session meter otherwise.
func (c *Client) primaryMeter() *netsim.Meter {
	if wm := c.route.Load().WriteMeter; wm != nil {
		return wm
	}
	return c.meter
}

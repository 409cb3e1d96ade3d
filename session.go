package pdmtune

import (
	"context"
	"fmt"
	"io"
	"time"

	"pdmtune/internal/advisor"
	"pdmtune/internal/cache"
	"pdmtune/internal/core"
	"pdmtune/internal/netsim"
	"pdmtune/internal/topology"
	"pdmtune/internal/wire"
)

// Transport carries encoded request/response frames between the PDM
// client and the database server — the seam the WithTransport option
// plugs: the in-process metered simulation (default), a loopback or
// real TCP StreamChannel, or anything else speaking the wire protocol.
type Transport = wire.Transport

// StreamTransport returns a Transport speaking the framed wire protocol
// over a real stream (TCP connection, net.Pipe, ...).
func StreamTransport(stream io.ReadWriter) Transport { return &wire.StreamChannel{Stream: stream} }

// MeteredTransport wraps any transport so its round trips are charged
// to the given meter (e.g. to account a real TCP session with the same
// Metrics the simulation produces).
func MeteredTransport(inner Transport, meter *Meter) Transport { return wire.Metered(inner, meter) }

// sessionConfig collects the functional options of System.Open and
// Cluster.OpenAt. The up-front conflict validation checks which options
// the caller gave explicitly, so an invalid combination fails at Open
// with an *OptionError instead of one option silently shadowing the
// other; an option whose value cannot be its zero needs no flag for
// that (a transport and an auto-tune loop are non-nil).
type sessionConfig struct {
	link Link
	user UserContext
	// knobs is the tunable configuration the options ask for; open
	// brings the fresh client to it through core.Client.Apply.
	knobs     TuneConfig
	transport Transport
	meter     *Meter
	rules     *RuleTable
	// site is the site the session opens at (PrimarySite for
	// System.Open), never empty.
	site string
	// autoTune starts WithAutoTune's loop over the opened session.
	autoTune func(advisor.Tunable) *advisor.AutoTuner

	linkSet bool
}

// Option configures a Session opened with System.Open or
// Cluster.OpenAt.
type Option func(*sessionConfig) error

// OptionError reports an invalid option or option combination passed
// to System.Open / Cluster.OpenAt. Conflicts are rejected up front —
// one structured error naming both options — rather than resolved by
// silently letting one option shadow the other.
type OptionError struct {
	// Option is the option that cannot apply.
	Option string
	// Conflict is the option it conflicts with ("" when the option is
	// invalid on its own).
	Conflict string
	// Reason explains the rejection.
	Reason string
}

func (e *OptionError) Error() string {
	if e.Conflict != "" {
		return fmt.Sprintf("pdmtune: %s conflicts with %s: %s", e.Option, e.Conflict, e.Reason)
	}
	return fmt.Sprintf("pdmtune: %s: %s", e.Option, e.Reason)
}

// validate rejects conflicting option combinations. It runs after all
// options applied, so the check sees the full configuration regardless
// of option order.
func (c *sessionConfig) validate() error {
	if c.transport != nil && c.linkSet {
		return &OptionError{Option: "WithLink", Conflict: "WithTransport",
			Reason: "a custom transport carries its own network; meter it with MeteredTransport/WithMeter instead"}
	}
	replica := c.site != PrimarySite
	if c.knobs.StalenessSec >= 0 && !replica {
		return &OptionError{Option: "WithMaxStaleness",
			Reason: "a staleness bound applies to replica reads; open the session at a site (Cluster.OpenAt)"}
	}
	if c.transport != nil && replica {
		return &OptionError{Option: "WithTransport", Conflict: "OpenAt",
			Reason: "a custom transport would bypass the site's replica; sessions at a site use the site's server"}
	}
	if c.autoTune != nil && c.transport != nil {
		return &OptionError{Option: "WithAutoTune", Conflict: "WithTransport",
			Reason: "auto-applied change sets renegotiate the wire encodings mid-session; a custom transport owns its connection and cannot be reconfigured behind the caller's back"}
	}
	return nil
}

// WithLink selects the network profile of the simulated transport:
// the client↔server link for a primary session (default: the paper's
// intercontinental WAN), the client↔replica link for a session opened
// at a site (default: LAN — the whole point of a local replica).
// Combining it with WithTransport is a conflict: a custom transport
// carries its own network.
func WithLink(l Link) Option {
	return func(c *sessionConfig) error { c.link = l; c.linkSet = true; return nil }
}

// WithMaxStaleness bounds how stale the session's replica reads may
// be: before an action's first fetch, the site is synced when its last
// sync is older than d (d = 0: sync before every action). Without this
// option a site session never syncs at read time — it reads whatever
// the site last pulled, the paper-faithful "read your own site"
// semantics — and freshness is driven explicitly via Cluster.SyncSite
// or SyncAll. Only valid for sessions opened at a replica site.
func WithMaxStaleness(d time.Duration) Option {
	return func(c *sessionConfig) error {
		if d < 0 {
			return &OptionError{Option: "WithMaxStaleness", Reason: "the bound must be >= 0"}
		}
		c.knobs.StalenessSec = d.Seconds()
		return nil
	}
}

// WithUser sets the session's user context (name, structure options,
// effectivity range). Default: DefaultUser("user").
func WithUser(u UserContext) Option {
	return func(c *sessionConfig) error { c.user = u; return nil }
}

// WithStrategy selects late evaluation, early evaluation or recursion.
// Default: Recursive (the paper's tuned configuration).
func WithStrategy(s Strategy) Option {
	return func(c *sessionConfig) error {
		switch s {
		case LateEval, EarlyEval, Recursive:
			c.knobs.Strategy = s
			return nil
		}
		return fmt.Errorf("pdmtune: unknown strategy %v", s)
	}
}

// WithBatching ships each BFS level of a structure expand and each
// multi-statement modify as one wire batch instead of one round trip
// per statement.
func WithBatching(on bool) Option {
	return func(c *sessionConfig) error { c.knobs.Batching = on; return nil }
}

// WithPreparedStatements prepares the parameterized per-node statements
// (expand, ∃structure probes, check-out updates) once per session and
// executes them by handle: the SQL text crosses the WAN once, every
// repetition ships a few dozen bytes of handle + parameters.
func WithPreparedStatements(on bool) Option {
	return func(c *sessionConfig) error { c.knobs.Prepared = on; return nil }
}

// WithColumnarResults negotiates the columnar v2 result encoding at
// session open: every result-bearing response frame (plain Exec, batch
// sub-frames, prepared executions, cache-refetch results) encodes each
// column once — dictionary-encoded repeated strings, varint-delta ids,
// a null bitmap instead of per-value tags. Decoded trees are identical
// to the v1 row-major path; only the response volume the meter charges
// shrinks. Off by default: an un-negotiated session costs exactly what
// it did before.
func WithColumnarResults(on bool) Option {
	return func(c *sessionConfig) error { c.knobs.Columnar = on; return nil }
}

// WithCompression negotiates whole-body deflate of response frames at
// session open. The server applies it adaptively: only bodies above a
// size threshold are compressed (and only when deflate actually shrinks
// them), so a LAN session does not pay CPU for tiny frames while a
// 256 kbit/s WAN session's cold multi-level expand ships a fraction of
// its row volume. Combine with WithColumnarResults for the full
// cold-path reduction. Off by default.
func WithCompression(on bool) Option {
	return func(c *sessionConfig) error { c.knobs.Compress = on; return nil }
}

// WithCache gives the session its own structure cache bounded to size
// entries: fetched expand pages and recursive trees are kept at the
// client, stamped with the server's per-object version counters, and a
// repeated Expand/MLE revalidates the whole cached tree in one small
// TypeValidate round trip instead of re-fetching it. The session's own
// check-out/check-in actions invalidate affected entries locally. A
// size <= 0 selects the default bound. The bound counts structure
// entries only (type lookups live in their own bounded store). The
// store holds entries of one strategy and one rule table generation: a
// strategy change or an added rule empties it.
func WithCache(size int) Option {
	return func(c *sessionConfig) error {
		if size <= 0 {
			size = cache.DefaultSize
		}
		c.knobs.CacheEntries = size
		return nil
	}
}

// WithTransport substitutes a custom transport for the in-process
// metered simulation — e.g. a StreamChannel over loopback TCP. Unless
// WithMeter supplies one, such a session has no meter: combine with
// MeteredTransport/WithMeter to keep WAN accounting. Conflicts with
// WithLink (the transport carries its own network) and with sessions
// opened at a replica site (they must talk to the site's server).
func WithTransport(t Transport) Option {
	return func(c *sessionConfig) error {
		if t == nil {
			return fmt.Errorf("pdmtune: WithTransport requires a non-nil transport")
		}
		c.transport = t
		return nil
	}
}

// WithMeter supplies the meter the session charges (and reports via
// Metrics). With the default simulated transport the meter replaces the
// one Open would create; with a custom transport it is the caller's
// contract that the transport charges it.
func WithMeter(m *Meter) Option {
	return func(c *sessionConfig) error {
		if m == nil {
			return fmt.Errorf("pdmtune: WithMeter requires a non-nil meter")
		}
		c.meter = m
		return nil
	}
}

// WithAutoTune closes the tuning loop: after every `every` completed
// user actions (every < 1 means 1) the session re-observes its metrics
// window, asks a for a plan (a's Product is the shape it prices; the
// zero Advisor assumes the paper's scenario), and applies the resulting
// change set to itself. The last applied set is available via
// Session.LastAutoTune and can be rolled back. Conflicts with
// WithTransport (an auto-applied set renegotiates the wire encodings
// mid-session).
func WithAutoTune(every int, a Advisor) Option {
	return func(c *sessionConfig) error {
		c.autoTune = func(t advisor.Tunable) *advisor.AutoTuner { return advisor.NewAutoTuner(t, every, a) }
		return nil
	}
}

// WithRules overrides the rule table the session's client evaluates
// (default: the system's table). The server-side procedures keep
// enforcing the system's rules either way.
func WithRules(rt *RuleTable) Option {
	return func(c *sessionConfig) error {
		if rt == nil {
			return fmt.Errorf("pdmtune: WithRules requires a non-nil rule table")
		}
		c.rules = rt
		return nil
	}
}

// Session is one configured PDM client connection: a user, a strategy,
// a transport and the wire-level execution mode (batching, prepared
// statements) bundled behind the paper's user actions. Sessions are not
// safe for concurrent use; open one Session per goroutine (a System
// serves many concurrent Sessions).
type Session struct {
	client *Client
	meter  *Meter
	// site is the site the session was opened at (PrimarySite for
	// direct primary sessions) and node that site's node (nil for
	// primary sessions); wan is the session's meter on the site↔primary
	// link (nil for primary sessions).
	site string
	node *topology.Site
	wan  *Meter
	// sys is the system the session was opened against: its cluster
	// fences the session's writes and tells the session's route when a
	// promotion moved the primary.
	sys *System
	// auto is WithAutoTune's loop (nil without it).
	auto *advisor.AutoTuner
}

// WireCaps are the wire capabilities a session actually negotiated —
// the server's accepted set, not the requested one. A session opened
// with WithCompression(true) against a server that predates the hello
// frame degrades gracefully to v1/uncompressed; this is where that
// downgrade becomes observable.
type WireCaps struct {
	ColumnarResults   bool
	Compression       bool
	CompressThreshold int
}

// Open starts a client session against the system. The zero
// configuration — sys.Open() — is a recursive-strategy session of user
// "user" simulated across the paper's intercontinental WAN; functional
// options select everything else:
//
//	sess, err := sys.Open(
//	    pdmtune.WithLink(pdmtune.Intercontinental()),
//	    pdmtune.WithUser(pdmtune.DefaultUser("scott")),
//	    pdmtune.WithStrategy(pdmtune.EarlyEval),
//	    pdmtune.WithBatching(true),
//	    pdmtune.WithPreparedStatements(true),
//	)
func (s *System) Open(opts ...Option) (*Session, error) {
	return s.open(context.Background(), PrimarySite, opts)
}

// open is the shared implementation of System.Open and Cluster.OpenAt:
// it opens the session at the named site (PrimarySite: the primary).
// ctx bounds the wire exchanges opening itself performs (bootstrap
// sync of a never-synced site, capability negotiation).
func (s *System) open(ctx context.Context, siteName string, opts []Option) (*Session, error) {
	cfg := sessionConfig{
		site:  siteName,
		link:  Intercontinental(),
		user:  DefaultUser("user"),
		knobs: TuneConfig{Strategy: Recursive, StalenessSec: -1}, // -1: read your own site
		rules: s.Rules,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("pdmtune: nil option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	topo := s.cluster.topo

	// Resolve the site. A replica session reads from the site's server
	// over the local link (LAN unless WithLink overrides it) and routes
	// writes to the primary over the site's WAN link.
	var site *topology.Site
	if cfg.site != PrimarySite {
		var ok bool
		if site, ok = topo.Site(cfg.site); !ok {
			return nil, &OptionError{Option: "OpenAt",
				Reason: fmt.Sprintf("unknown site %q (have %v)", cfg.site, topo.SiteNames())}
		}
		if !cfg.linkSet {
			cfg.link = LAN()
		}
	}

	// dial builds the default transport to one of the cluster's nodes:
	// the in-process metered simulation on a connection of its own,
	// routed through the cluster's transport wrapper (the fault
	// injection seam, a no-op unless one is installed).
	dial := func(n *topology.Site, meter *Meter) Transport {
		return topo.Wrap(n, &wire.MeteredChannel{Conn: n.Server().NewConn(), Meter: meter})
	}
	// The term is taken before the primary is read and dialed: a
	// promotion after this point moves the session at its first action.
	term := topo.Term()
	primary := topo.Primary()
	meter := cfg.meter
	read := cfg.transport
	// retry lets the reads over a cluster-built transport ride out a
	// dead connection.
	var retry *wire.RetryPolicy
	if read == nil {
		// Reads go to the site's replica server for replica sessions and
		// to the current primary otherwise.
		if meter == nil {
			meter = netsim.NewMeter(cfg.link)
		}
		node := primary
		if site != nil {
			node = site
		}
		read = dial(node, meter)
		retry = &wire.RetryPolicy{Meter: meter}
	}
	sess := &Session{meter: meter, site: PrimarySite, sys: s}
	if site != nil {
		// A replica session's writes cross the site's WAN link to the
		// primary, metered on a meter of their own.
		sess.site = cfg.site
		sess.node = site
		sess.wan = netsim.NewMeter(site.Link())
	}
	client := core.NewClient(nil, meter, cfg.rules, cfg.user, cfg.knobs.Strategy)
	sess.client = client
	route := sess.connect(read, retry, primary, func(m *Meter) Transport { return dial(primary, m) })
	if cfg.transport == nil { // a route over the caller's transport never moves
		route.Follow = sess.follow(term)
	}
	client.SetRoute(route)
	if site != nil {
		client.SetSiteSync(site)
		// A never-synced site has no catalog to read from yet:
		// bootstrap it once, charged to the site's own meter.
		if !site.Synced() {
			if _, err := site.Sync(ctx); err != nil {
				return nil, fmt.Errorf("pdmtune: bootstrap sync of site %q: %w", cfg.site, err)
			}
		}
	}
	// Apply wires the rest of the options; changed encodings cost one
	// round trip, bounded by ctx. A replica session's cache validates
	// against the site's mirrored version log.
	k := cfg.knobs
	k.Replica = site != nil
	if err := client.Apply(ctx, k); err != nil {
		return nil, err
	}
	if cfg.autoTune != nil {
		sess.auto = cfg.autoTune(sess)
	}
	return sess, nil
}

// Client exposes the underlying PDM client (advanced use).
func (s *Session) Client() *Client { return s.client }

// Meter returns the session's WAN meter (nil for unmetered custom
// transports).
func (s *Session) Meter() *Meter { return s.meter }

// Cache returns the session's structure cache (nil when the session
// has none, as without WithCache).
func (s *Session) Cache() *Cache { return s.client.Cache() }

// WireCaps reports the wire capabilities the session's connection
// negotiated at its last hello: at open, at ApplyConfig, or after a
// promotion moved it (zero when nothing was requested, or when the
// server declined and the session degraded to the v1 encodings).
func (s *Session) WireCaps() WireCaps {
	caps := s.client.WireCaps()
	return WireCaps{ColumnarResults: caps.Columnar, Compression: caps.Compress, CompressThreshold: caps.CompressThreshold}
}

// Metrics returns the traffic accumulated so far (zero when the
// session has no meter): for a primary session its single meter, for a
// session at a replica site the sum of its site-local reads and its
// WAN writes (see LocalMetrics / WANMetrics for the split).
func (s *Session) Metrics() Metrics { return s.client.Metrics() }

// Site returns the name of the site the session was opened at
// (PrimarySite for sessions opened directly against the primary).
func (s *Session) Site() string { return s.site }

// LocalMetrics returns the traffic charged to the session's own link —
// everything for a primary session, the replica reads for a session at
// a site.
func (s *Session) LocalMetrics() Metrics {
	if s.meter == nil {
		return Metrics{}
	}
	return s.meter.Snapshot()
}

// WANMetrics returns the session's traffic across the site↔primary WAN
// link: the writes (check-out/check-in, CALLs, raw DML) a replica
// session routed to the primary. Zero for sessions opened at the
// primary, whose entire traffic is in LocalMetrics. Replication pulls
// are not here — they are charged to the site's meter (Site.Metrics),
// shared by every session at the site.
func (s *Session) WANMetrics() Metrics {
	if s.wan == nil {
		return Metrics{}
	}
	return s.wan.Snapshot()
}

// ResetMetrics clears the session's meters (between actions).
func (s *Session) ResetMetrics() { s.client.ResetMetrics() }

// Close ends the session. It releases nothing and costs no round trip:
// sessions hold no server-side state (the statements they prepared
// belong to the server), and the control plane keeps no record of them
// — a session follows a promotion by itself at its next action. The
// session remains usable afterwards, so Close is safe to defer right
// after Open.
func (s *Session) Close() error { return nil }

// Query performs the set-oriented Query action: all nodes of a product
// in one statement. At a subscription-bounded site it runs at the
// primary as one fall-through read, since a product spans every
// subtree.
func (s *Session) Query(ctx context.Context, prod int64) (*ActionResult, error) {
	res, err := s.client.QueryAll(ctx, prod)
	s.auto.Step(ctx, err)
	return res, err
}

// Expand performs a single-level expand of one object.
func (s *Session) Expand(ctx context.Context, root int64) (*ActionResult, error) {
	res, err := s.client.Expand(ctx, root)
	s.auto.Step(ctx, err)
	return res, err
}

// MultiLevelExpand retrieves the entire structure under root.
func (s *Session) MultiLevelExpand(ctx context.Context, root int64) (*ActionResult, error) {
	res, err := s.client.MultiLevelExpand(ctx, root)
	s.auto.Step(ctx, err)
	return res, err
}

// CheckOut checks out the subtree under root (expand + flag updates).
func (s *Session) CheckOut(ctx context.Context, root int64) (*CheckOutResult, error) {
	res, err := s.client.CheckOut(ctx, root)
	s.auto.Step(ctx, err)
	return res, err
}

// CheckIn releases a previously checked-out subtree.
func (s *Session) CheckIn(ctx context.Context, root int64) (*CheckOutResult, error) {
	res, err := s.client.CheckIn(ctx, root)
	s.auto.Step(ctx, err)
	return res, err
}

// CheckOutViaProcedure performs the whole check-out in one round trip
// via the server-side stored procedure (Section 6).
func (s *Session) CheckOutViaProcedure(ctx context.Context, root int64) (*CheckOutResult, error) {
	res, err := s.client.CheckOutViaProcedure(ctx, root)
	s.auto.Step(ctx, err)
	return res, err
}

// CheckInViaProcedure is the single-round-trip check-in.
func (s *Session) CheckInViaProcedure(ctx context.Context, root int64) (*CheckOutResult, error) {
	res, err := s.client.CheckInViaProcedure(ctx, root)
	s.auto.Step(ctx, err)
	return res, err
}

// Exec ships one raw SQL statement (administration, DDL, loading). A
// read runs where the session reads — at a subscription-bounded site,
// at the primary as one fall-through read; everything else runs at the
// primary.
func (s *Session) Exec(ctx context.Context, sql string, params ...Value) (*Response, error) {
	return s.client.Exec(ctx, sql, params...)
}

// Run executes one of the paper's user actions by enum — Query, Expand
// or MLE. target is the root object for Expand/MLE and the product id
// for Query. Unknown actions are an error, not a silent multi-level
// expand.
func (s *Session) Run(ctx context.Context, action Action, target int64) (*ActionResult, error) {
	switch action {
	case Query:
		return s.Query(ctx, target)
	case Expand:
		return s.Expand(ctx, target)
	case MLE:
		return s.MultiLevelExpand(ctx, target)
	case WhereUsed:
		return s.WhereUsed(ctx, target)
	}
	return nil, fmt.Errorf("pdmtune: unknown action %v", action)
}

// WhereUsed performs the inverse traversal: every assembly that —
// directly or transitively — uses the given part, walked upward over
// the link relation: one recursive statement under the Recursive
// strategy, level by level under the navigational ones. On a partial
// replica the upward direction does not respect the subscription
// closure (a subscribed subtree's parts may be used by unsubscribed
// assemblies), so the whole traversal falls through to the primary at
// WAN cost.
func (s *Session) WhereUsed(ctx context.Context, part int64) (*ActionResult, error) {
	res, err := s.client.WhereUsed(ctx, part)
	s.auto.Step(ctx, err)
	return res, err
}

// ECOPropagate performs an engineering-change-order touch: the part's
// state is updated and every assembly affected by it (its where-used
// closure) is revalidated to the same state, by one stored-procedure
// call at the primary that commits the whole change as one unit.
// Assemblies currently checked out keep their state and are reported
// as conflicts. Cached structures containing affected objects are
// invalidated.
func (s *Session) ECOPropagate(ctx context.Context, part int64, newState string) (*ECOResult, error) {
	res, err := s.client.ECOPropagate(ctx, part, newState)
	s.auto.Step(ctx, err)
	return res, err
}

// Report performs the bulk report: per-product aggregates
// (assembly/component counts, checked-out count, total weight) computed
// at the server by one statement — site-local at a full replica, at the
// primary as a fall-through read on a partial one, which does not hold
// every subtree.
func (s *Session) Report(ctx context.Context, prod int64) (*ReportResult, error) {
	res, err := s.client.Report(ctx, prod)
	s.auto.Step(ctx, err)
	return res, err
}

package pdmtune

import (
	"context"
	"fmt"

	"pdmtune/internal/core"
	"pdmtune/internal/minisql"
	"pdmtune/internal/netsim"
	"pdmtune/internal/topology"
	"pdmtune/internal/wire"
	"pdmtune/internal/workload"
)

// PrimarySite is the reserved site name of the cluster's primary:
// OpenAt(ctx, PrimarySite) opens a session directly against the
// current primary server, exactly like System.Open.
const PrimarySite = topology.PrimarySite

// Site is one replica site of a Cluster: a named location holding a
// synchronized copy of the primary's database behind its own wire
// server. Sessions opened at a site read from the replica over the
// site-local link; their writes — and the site's replication pulls —
// cross the site's WAN link to the primary.
type Site = topology.Site

// SyncStats reports one replication pull (see Cluster.SyncSite).
type SyncStats = topology.SyncStats

// SiteMetrics labels one site's accumulated WAN traffic in a
// cluster-wide report.
type SiteMetrics = netsim.SiteMetrics

// SiteConfig declares one replica site of a cluster.
type SiteConfig struct {
	// Name identifies the site ("munich", "saopaulo"); it must be
	// non-empty, unique within the cluster, and not "primary".
	Name string
	// Link is the WAN profile between the site and the primary —
	// replication pulls and the writes of sessions at this site are
	// charged against it. The zero value selects the paper's
	// intercontinental link.
	Link Link
}

// Cluster is a PDM system deployed worldwide: one primary database
// plus any number of named replica sites, each holding a full copy
// kept current by epoch-based delta pulls (the VersionLog watermark of
// the structure cache, reused as the replication cursor).
//
//	cl, _ := pdmtune.NewCluster(nil,
//	    pdmtune.SiteConfig{Name: "munich", Link: pdmtune.Intercontinental()},
//	)
//	prod, _ := cl.LoadProduct(pdmtune.ProductConfig{Depth: 7, Branch: 5, Sigma: 0.6})
//	_ = cl.SyncAll(ctx)
//	sess, _ := cl.OpenAt(ctx, "munich")        // reads at LAN cost
//	defer sess.Close()
//	res, _ := sess.MultiLevelExpand(ctx, prod.RootID)
//
// A session opened at a site routes every read (expand, probes, type
// lookups, recursive fetches, Query, raw SELECTs) to the site's replica
// and every write (check-out/check-in, CALLs, raw DML) to the primary.
// At a subscription-bounded site (Subscribe) a read the replica cannot
// answer in full runs at the primary as a fall-through read: a
// structure read rooted outside the subscription, and every read of
// the whole structure (Query, where-used, the report, raw SELECTs).
// Freshness is the session's choice: by default a site session reads
// whatever its site last synced ("read your own site"); with
// WithMaxStaleness it syncs the site before serving whenever the last
// sync is older than the bound.
type Cluster struct {
	sys *System
	// topo is the control plane: the node registry, the fencing term,
	// promotions and subscriptions (internal/topology).
	topo *topology.Cluster
}

// NewCluster creates a PDM cluster: a primary system (rules may be nil
// for the standard set) plus one empty replica per site config. The
// replicas bootstrap their catalog and data from their first sync. A
// cluster without site configs is exactly a single-server System —
// which is how NewSystem is implemented.
func NewCluster(rules *RuleTable, sites ...SiteConfig) (*Cluster, error) {
	sys, primary := newPrimarySystem(rules)
	cl := &Cluster{sys: sys}
	sys.cluster = cl
	var replicas []*topology.Site
	seen := map[string]bool{}
	for _, sc := range sites {
		if sc.Name == "" {
			return nil, fmt.Errorf("pdmtune: site with an empty name")
		}
		if sc.Name == PrimarySite {
			return nil, fmt.Errorf("pdmtune: site name %q is reserved for the primary", PrimarySite)
		}
		if sc.Name == DemotedPrimarySite {
			return nil, fmt.Errorf("pdmtune: site name %q is reserved for a rejoining deposed primary", DemotedPrimarySite)
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("pdmtune: duplicate site %q", sc.Name)
		}
		seen[sc.Name] = true
		link := sc.Link
		if link == (Link{}) {
			link = Intercontinental()
		}
		// The replica database enforces the same rules and version-key
		// overrides as the primary, so the validate exchange and the
		// stored procedures behave identically at every site.
		rdb := minisql.NewDB()
		core.RegisterProcedures(rdb, sys.Rules)
		meter := netsim.NewMeter(link)
		pull := &wire.MeteredChannel{Conn: sys.Server.NewConn(), Meter: meter}
		replicas = append(replicas, topology.New(sc.Name, rdb, pull, meter, link))
	}
	cl.topo = topology.NewCluster(primary, replicas...)
	return cl, nil
}

// Primary returns the system the cluster was created around — the
// original primary, whose DB and Server stay its own. Writes land in
// that database until a promotion moves the primary role to a site
// (PrimaryName tells which node holds it), and again once the original
// rejoins and is promoted back.
func (c *Cluster) Primary() *System { return c.sys }

// LoadProduct generates a product structure into the current primary
// (after a promotion, the promoted site) and returns its ground truth.
// Replicas receive it on their next sync.
func (c *Cluster) LoadProduct(cfg ProductConfig) (*Product, error) {
	return workload.Generate(c.topo.Primary().DB().NewSession(), cfg)
}

// LoadPaperExample loads the paper's Figure 2 example data into the
// current primary.
func (c *Cluster) LoadPaperExample() error {
	return workload.LoadPaperExample(c.topo.Primary().DB().NewSession())
}

// SiteNames lists the replica sites in declaration order (the primary
// is not listed; it is always addressable as PrimarySite).
func (c *Cluster) SiteNames() []string { return c.topo.SiteNames() }

// Site returns a replica site by name.
func (c *Cluster) Site(name string) (*Site, bool) { return c.topo.Site(name) }

// SyncSite pulls one site forward to the primary's current epoch: the
// rows of every object modified since the site's last sync cross the
// site's WAN link once and are applied transactionally to the replica.
func (c *Cluster) SyncSite(ctx context.Context, name string) (SyncStats, error) {
	site, ok := c.topo.Site(name)
	if !ok {
		return SyncStats{}, fmt.Errorf("pdmtune: unknown site %q", name)
	}
	return site.Sync(ctx)
}

// SyncAll syncs every site, stopping at the first error.
func (c *Cluster) SyncAll(ctx context.Context) error {
	for _, site := range c.topo.Sites() {
		if _, err := site.Sync(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Metrics reports the per-site replication traffic (each site's WAN
// meter) — aggregate with Metrics.Add. The sessions' own traffic is on
// the sessions' meters.
func (c *Cluster) Metrics() []SiteMetrics {
	sites := c.topo.Sites()
	out := make([]SiteMetrics, 0, len(sites))
	for _, s := range sites {
		out = append(out, SiteMetrics{Site: s.Name(), Link: s.Link(), Metrics: s.Metrics()})
	}
	return out
}

// Subscribe registers (or replaces) a site's partial-replication
// subscription: from the next pull on, the site is shipped only the
// structure rows in the closure of the given product subtree roots —
// the version stamps still replicate in full, so cache validation and
// staleness bounds keep working — and its sessions transparently
// re-issue reads outside the closure against the primary at WAN cost.
// Subscribing the primary site is meaningless and rejected.
func (c *Cluster) Subscribe(site string, roots ...int64) error {
	return c.topo.Subscribe(site, roots...)
}

// Unsubscribe removes a site's subscription: its next pull ships the
// full delta again and the site resumes full replication.
func (c *Cluster) Unsubscribe(site string) error { return c.topo.Unsubscribe(site) }

// SubscriptionRoots returns a site's subscribed subtree roots (nil when
// the site replicates in full).
func (c *Cluster) SubscriptionRoots(site string) []int64 { return c.topo.SubscriptionRoots(site) }

// Term returns the cluster's current fencing term (0 for site-less
// clusters, which run unfenced).
func (c *Cluster) Term() uint64 { return c.topo.Term() }

// PrimaryName returns the name of the current primary: PrimarySite
// until a promotion, the promoted site's name after.
func (c *Cluster) PrimaryName() string { return c.topo.PrimaryName() }

// SetTransportWrapper installs a decorator applied to every transport
// the cluster builds from now on — replication pulls, health/quorum
// probes, and the default transports of sessions opened later. target
// names the server the transport points at (PrimarySite or a site
// name), so a test can kill every connection into one node at once.
// Existing site pulls are re-built through the wrapper immediately;
// already-open sessions keep their transports. The wrapper runs under
// the cluster's control-plane lock and must not call the Cluster.
func (c *Cluster) SetTransportWrapper(wrap func(target string, tr Transport) Transport) {
	c.topo.SetTransportWrapper(wrap)
}

// SetPromoteConfig tunes the promotion prechecks (epoch-lag bound,
// quorum size).
func (c *Cluster) SetPromoteConfig(cfg PromoteConfig) { c.topo.SetPromoteConfig(cfg) }

// HealthMetrics reports the control plane's probe traffic: health
// probes and failures (HealthProbes / ProbeFailures), plus the quorum
// probes of promotions.
func (c *Cluster) HealthMetrics() Metrics { return c.topo.HealthMetrics() }

// Promote performs a health-checked primary failover to the named
// site: prechecks (quorum, no in-flight check-outs at the candidate,
// full coverage), fencing of the old primary, a final catch-up pull,
// the term bump, and the re-pointing of every other site. Open sessions
// follow at their next action, which finds the term moved and runs at
// the new primary; an action in flight finishes where it started, and
// a write of it that the deposed primary fences is re-issued once at
// the new primary. A refused promotion returns a *PromoteError. See
// topology.Cluster.Promote.
func (c *Cluster) Promote(ctx context.Context, name string) error { return c.topo.Promote(ctx, name) }

// PromoteBest promotes the most caught-up reachable replica site and
// returns its name. It is what the health checker triggers when the
// primary goes down.
func (c *Cluster) PromoteBest(ctx context.Context) (string, error) { return c.topo.PromoteBest(ctx) }

// WatchPrimary attaches a health checker to the cluster's primary. The
// checker probes over the ordinary wire transport (through any
// installed transport wrapper, so fault injection applies) and, once
// Threshold consecutive probes fail, triggers PromoteBest. Drive it
// deterministically with CheckNow, or Start its background loop (and
// Stop it before discarding the cluster). Probe counts surface in
// HealthMetrics.
func (c *Cluster) WatchPrimary(cfg HealthConfig) *HealthChecker { return c.topo.WatchPrimary(cfg) }

// Rejoin brings a deposed original primary back into the cluster as
// the replica site DemotedPrimarySite: its divergent tail — writes it
// accepted after the promotion base that never replicated — is
// discarded, its fence is aligned with the cluster's current term (as
// a replica), and it syncs forward from the promotion base off the new
// primary. Sessions still attached to its server keep working as
// replica-read sessions. Returns the stats of the initial sync.
func (c *Cluster) Rejoin(ctx context.Context) (SyncStats, error) { return c.topo.Rejoin(ctx) }

// OpenAt opens a session at a site: the same Session as System.Open,
// with reads served by the site's replica over the session's local
// link (default: LAN) and writes routed to the primary over the site's
// WAN link. ctx bounds the wire exchanges OpenAt itself performs — a
// bootstrap sync when the site never synced, and the capability
// negotiation when one is requested. OpenAt(ctx, PrimarySite, ...)
// opens directly against the primary.
//
// Option semantics at a replica site: WithLink configures the
// client↔replica link (the site↔primary link is fixed by the cluster
// topology); WithMaxStaleness selects bounded-staleness reads;
// WithTransport is rejected — a custom transport would bypass the
// site's replica. An empty or unknown site name fails with an
// *OptionError: a typo must not silently open a full-WAN primary
// session.
func (c *Cluster) OpenAt(ctx context.Context, site string, opts ...Option) (*Session, error) {
	if site == "" {
		return nil, &OptionError{Option: "OpenAt",
			Reason: "empty site name; use PrimarySite to address the primary explicitly"}
	}
	return c.sys.open(ctx, site, opts)
}

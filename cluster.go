package pdmtune

import (
	"context"
	"fmt"

	"pdmtune/internal/core"
	"pdmtune/internal/minisql"
	"pdmtune/internal/netsim"
	"pdmtune/internal/subscribe"
	"pdmtune/internal/topology"
	"pdmtune/internal/wire"
	"pdmtune/internal/workload"
)

// PrimarySite is the reserved site name of the cluster's primary:
// OpenAt(ctx, PrimarySite) opens a session directly against the
// primary server, exactly like System.Open.
const PrimarySite = "primary"

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
// lookups, recursive fetches, raw SELECTs) to the site's replica and
// every write (check-out/check-in, CALLs, raw DML) to the primary.
// Freshness is the session's choice: by default a site session reads
// whatever its site last synced ("read your own site"); with
// WithMaxStaleness it syncs the site before serving whenever the last
// sync is older than the bound.
type Cluster struct {
	sys   *System
	sites map[string]*topology.Site
	order []string
	// ha is the failover control plane: fencing terms, the per-server
	// fences, the session registry promotions re-route, and the
	// fault-injection seam. See ha.go.
	ha haState
	// sub is the partial-replication subscription registry, created
	// lazily by the first Subscribe and handed over to the new primary
	// at promotion. Guarded by ha.mu.
	sub *subscribe.Registry
}

// NewCluster creates a PDM cluster: a primary system (rules may be nil
// for the standard set) plus one empty replica per site config. The
// replicas bootstrap their catalog and data from their first sync. A
// cluster without site configs is exactly a single-server System —
// which is how NewSystem is implemented.
func NewCluster(rules *RuleTable, sites ...SiteConfig) (*Cluster, error) {
	sys := newPrimarySystem(rules)
	cl := &Cluster{sys: sys, sites: map[string]*topology.Site{}}
	sys.cluster = cl
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
		if _, dup := cl.sites[sc.Name]; dup {
			return nil, fmt.Errorf("pdmtune: duplicate site %q", sc.Name)
		}
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
		cl.sites[sc.Name] = topology.New(sc.Name, rdb, pull, meter, link)
		cl.order = append(cl.order, sc.Name)
	}
	if len(cl.sites) > 0 {
		// A cluster with replicas runs fenced: every server gets a fence,
		// every pull a term stamp and a retry policy. Site-less systems
		// keep the pre-HA wire format untouched.
		cl.enableFencing()
	}
	return cl, nil
}

// Primary returns the cluster's primary system — the single database
// every write lands in.
func (c *Cluster) Primary() *System { return c.sys }

// LoadProduct generates a product structure into the current primary
// (after a promotion, the promoted site) and returns its ground truth.
// Replicas receive it on their next sync.
func (c *Cluster) LoadProduct(cfg ProductConfig) (*Product, error) {
	return workload.Generate(c.primaryDB().NewSession(), cfg)
}

// LoadPaperExample loads the paper's Figure 2 example data into the
// current primary.
func (c *Cluster) LoadPaperExample() error {
	return workload.LoadPaperExample(c.primaryDB().NewSession())
}

// SiteNames lists the replica sites in declaration order (the primary
// is not listed; it is always addressable as PrimarySite).
func (c *Cluster) SiteNames() []string { return append([]string(nil), c.order...) }

// Site returns a replica site by name.
func (c *Cluster) Site(name string) (*Site, bool) {
	s, ok := c.sites[name]
	return s, ok
}

// SyncSite pulls one site forward to the primary's current epoch: the
// rows of every object modified since the site's last sync cross the
// site's WAN link once and are applied transactionally to the replica.
func (c *Cluster) SyncSite(ctx context.Context, name string) (SyncStats, error) {
	site, ok := c.sites[name]
	if !ok {
		return SyncStats{}, fmt.Errorf("pdmtune: unknown site %q", name)
	}
	return site.Sync(ctx)
}

// SyncAll syncs every site, stopping at the first error.
func (c *Cluster) SyncAll(ctx context.Context) error {
	for _, name := range c.order {
		if _, err := c.sites[name].Sync(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Metrics reports the per-site replication traffic (each site's WAN
// meter) — aggregate with Metrics.Add. The sessions' own traffic is on
// the sessions' meters.
func (c *Cluster) Metrics() []SiteMetrics {
	out := make([]SiteMetrics, 0, len(c.order))
	for _, name := range c.order {
		s := c.sites[name]
		out = append(out, SiteMetrics{Site: name, Link: s.Link(), Metrics: s.Metrics()})
	}
	return out
}

// ---------------------------------------------------------------------------
// partial replication: per-site product subscriptions

// Subscribe registers (or replaces) a site's partial-replication
// subscription: from the next pull on, the site is shipped only the
// structure rows in the closure of the given product subtree roots —
// the version stamps still replicate in full, so cache validation and
// staleness bounds keep working — and its sessions transparently
// re-issue reads outside the closure against the primary at WAN cost.
// Subscribing the primary site is meaningless and rejected.
func (c *Cluster) Subscribe(site string, roots ...int64) error {
	if _, ok := c.sites[site]; !ok {
		return fmt.Errorf("pdmtune: subscribe: unknown site %q", site)
	}
	c.ha.mu.Lock()
	defer c.ha.mu.Unlock()
	if site == c.primaryNameLocked() || c.sites[site].IsPrimary() {
		return fmt.Errorf("pdmtune: subscribe: site %q is the primary and holds everything", site)
	}
	c.registryLocked().Subscribe(site, roots...)
	return nil
}

// Unsubscribe removes a site's subscription: its next pull ships the
// full delta again and the site resumes full replication.
func (c *Cluster) Unsubscribe(site string) error {
	if _, ok := c.sites[site]; !ok {
		return fmt.Errorf("pdmtune: unsubscribe: unknown site %q", site)
	}
	c.ha.mu.Lock()
	defer c.ha.mu.Unlock()
	if c.sub != nil {
		c.sub.Unsubscribe(site)
	}
	return nil
}

// SubscriptionRoots returns a site's subscribed subtree roots (nil when
// the site replicates in full).
func (c *Cluster) SubscriptionRoots(site string) []int64 {
	c.ha.mu.Lock()
	defer c.ha.mu.Unlock()
	if c.sub == nil {
		return nil
	}
	return c.sub.Roots(site)
}

// registryLocked lazily creates the subscription registry against the
// current primary's database and installs the sync filter on its
// server. Must be called with ha.mu held.
func (c *Cluster) registryLocked() *subscribe.Registry {
	if c.sub == nil {
		c.sub = subscribe.New(c.primaryDBLocked())
		c.installSyncFilterLocked()
	}
	return c.sub
}

// primaryDB is primaryDBLocked for callers outside the control plane's
// critical sections.
func (c *Cluster) primaryDB() *minisql.DB {
	c.ha.mu.Lock()
	defer c.ha.mu.Unlock()
	return c.primaryDBLocked()
}

// primaryDBLocked resolves the current primary's database.
func (c *Cluster) primaryDBLocked() *minisql.DB {
	name := c.primaryNameLocked()
	if name == PrimarySite {
		return c.sys.DB
	}
	return c.sites[name].DB()
}

// installSyncFilterLocked points the current primary's wire server at
// the subscription registry: pulls that identify a subscribed site get
// a filtered delta, everyone else the full one.
func (c *Cluster) installSyncFilterLocked() {
	server, _ := c.primaryServerLocked()
	sub := c.sub
	server.SetSyncFilter(func(site string) *wire.SyncFilter {
		keep, holds, ok := sub.FilterFor(site)
		if !ok {
			return nil
		}
		return &wire.SyncFilter{Keep: keep, Holds: holds}
	})
}

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
// site's replica.
func (c *Cluster) OpenAt(ctx context.Context, site string, opts ...Option) (*Session, error) {
	return c.sys.open(ctx, append([]Option{WithSite(site)}, opts...))
}

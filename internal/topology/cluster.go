package topology

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pdmtune/internal/failover"
	"pdmtune/internal/netsim"
	"pdmtune/internal/subscribe"
	"pdmtune/internal/wire"
)

const (
	// PrimarySite names the current primary to sessions, and is the
	// transport-wrapper target of the original primary until it rejoins.
	// It is reserved: no replica site may use it.
	PrimarySite = "primary"
	// DemotedPrimarySite is the site name under which a deposed original
	// primary rejoins the cluster as a replica (Cluster.Rejoin). It is
	// reserved: no replica site may use it.
	DemotedPrimarySite = "old-primary"
)

// Dialer builds a transport into one node, charged to meter and passed
// through the cluster's transport wrapper.
type Dialer func(meter *netsim.Meter) wire.Transport

// Cluster is the control plane of a replicated deployment: the node
// registry, the fencing term, the transport wrapper, the in-flight
// write counts, the subscription registry and the health checker.
// Everything mutates under one mutex — a promotion is a single critical
// section, so a write that starts after it observes the complete new
// topology.
type Cluster struct {
	mu sync.Mutex
	// primary is the one node without an upstream pull: the cluster's
	// only record of who is primary.
	primary *Site
	// origin is the node the cluster was created around; until it
	// rejoins it is not a site, and is addressed as PrimarySite.
	origin   *Site
	rejoined bool
	// sites are the replica sites in declaration order; Rejoin appends
	// the origin.
	sites []*Site
	// term is the fencing term: 0 while unfenced (site-less), 1 once
	// fences are installed, bumped per promotion. Atomic: the term
	// source reads it on every stamped frame, including the frames of a
	// promotion's own catch-up sync.
	term atomic.Uint64
	// baseEpoch is the last promotion's base epoch, which Rejoin rewinds
	// the origin to; lastPrimaryEpoch the highest base so far, which
	// with the sites' epochs bounds the epoch-lag precheck.
	baseEpoch, lastPrimaryEpoch uint64
	// wrap decorates every transport the cluster builds, keyed by the
	// target node's name — the fault-injection seam.
	wrap func(target string, tr wire.Transport) wire.Transport
	// inflight counts check-out/check-in actions in flight per node
	// (nil key: sessions at the primary) for the promotion precheck.
	inflight    map[*Site]int
	cfg         PromoteConfig
	healthMeter *netsim.Meter // health and quorum probes
	checker     *failover.Checker
	// sub is the subscription registry, created by the first Subscribe
	// and handed over to each new primary.
	sub *subscribe.Registry
}

// NewCluster registers the original primary and its replica sites,
// whose upstreams point at the primary. A cluster with sites runs
// fenced: every server gets a term-1 fence (the primary's flagged
// primary), every pull a term stamp and a retry policy. A site-less
// cluster keeps the pre-HA wire format untouched.
func NewCluster(primary *Site, sites ...*Site) *Cluster {
	c := &Cluster{primary: primary, origin: primary, sites: sites}
	if len(sites) == 0 {
		return c
	}
	c.term.Store(1)
	c.inflight = map[*Site]int{}
	c.healthMeter = netsim.NewMeter(netsim.LAN())
	for _, n := range c.nodesLocked() {
		n.server.SetFence(wire.NewFence(1, n == primary))
		n.fence(c.TermSource())
	}
	return c
}

// WithPrimary runs fn under the control-plane lock with the current
// primary and a dialer into it: no promotion starts or ends while fn
// runs. fn must not call the Cluster.
func (c *Cluster) WithPrimary(fn func(primary *Site, dial Dialer)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.primary, c.dialerLocked(c.primary))
}

// nodesLocked lists every node once: the original primary (unless it
// rejoined as a site) and the sites.
func (c *Cluster) nodesLocked() []*Site {
	if c.rejoined {
		return c.sites
	}
	return append([]*Site{c.origin}, c.sites...)
}

// Fenced reports whether the cluster runs fenced (has sites).
func (c *Cluster) Fenced() bool { return c.term.Load() != 0 }

// Term returns the current fencing term (0 for site-less clusters,
// which run unfenced).
func (c *Cluster) Term() uint64 { return c.term.Load() }

// TermSource returns the fencing-term source clients stamp their write
// and sync frames with. It is lock-free so a promotion's catch-up sync
// can stamp frames while the promotion holds the control-plane lock.
func (c *Cluster) TermSource() wire.TermSource {
	return func() (uint64, bool) {
		t := c.term.Load()
		return t, t != 0
	}
}

// Primary returns the current primary node.
func (c *Cluster) Primary() *Site {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// PrimaryName returns the name of the current primary: PrimarySite
// until a promotion, the promoted site's name after.
func (c *Cluster) PrimaryName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.targetLocked(c.primary)
}

// targetLocked is the name a node is addressed by: PrimarySite for the
// original primary until it rejoins, the site name otherwise.
func (c *Cluster) targetLocked(n *Site) string {
	if n == c.origin && !c.rejoined {
		return PrimarySite
	}
	return n.name
}

// Site returns a replica site by name.
func (c *Cluster) Site(name string) (*Site, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.siteLocked(name)
	return n, n != nil
}

func (c *Cluster) siteLocked(name string) *Site {
	for _, n := range c.sites {
		if n.name == name {
			return n
		}
	}
	return nil
}

// Sites lists the replica sites in declaration order.
func (c *Cluster) Sites() []*Site {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Site(nil), c.sites...)
}

// SiteNames lists the replica sites' names in declaration order.
func (c *Cluster) SiteNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.siteNamesLocked()
}

func (c *Cluster) siteNamesLocked() []string {
	var names []string
	for _, n := range c.sites {
		names = append(names, n.name)
	}
	return names
}

// SetTransportWrapper installs a decorator applied to every transport
// the cluster builds from now on, keyed by the target node's name.
// Existing site pulls are re-built through the wrapper immediately.
// The wrapper runs under the control-plane lock and must not call the
// Cluster.
func (c *Cluster) SetTransportWrapper(wrap func(target string, tr wire.Transport) wire.Transport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrap = wrap
	for _, n := range c.sites {
		if n != c.primary {
			n.repoint(c.dialLocked(c.primary, n.meter))
		}
	}
}

// Wrap passes a transport into node n through the transport wrapper.
func (c *Cluster) Wrap(n *Site, tr wire.Transport) wire.Transport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrapLocked(n, tr)
}

func (c *Cluster) wrapLocked(n *Site, tr wire.Transport) wire.Transport {
	if c.wrap == nil {
		return tr
	}
	return c.wrap(c.targetLocked(n), tr)
}

// dialLocked builds a wrapped, metered connection into node n.
func (c *Cluster) dialLocked(n *Site, meter *netsim.Meter) wire.Transport {
	return c.wrapLocked(n, &wire.MeteredChannel{Conn: n.server.NewConn(), Meter: meter})
}

// dialerLocked binds dialLocked to node n for callbacks that run under
// the lock.
func (c *Cluster) dialerLocked(n *Site) Dialer {
	return func(meter *netsim.Meter) wire.Transport { return c.dialLocked(n, meter) }
}

// BeginWrite counts one in-flight check-out/check-in by a session at
// node n (nil for sessions at the primary) and returns the matching
// decrement. A candidate with a write mid-flight cannot be promoted
// out from under it.
func (c *Cluster) BeginWrite(n *Site) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight == nil {
		return func() {}
	}
	c.inflight[n]++
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.inflight[n]--
	}
}

// SetPromoteConfig tunes the promotion prechecks.
func (c *Cluster) SetPromoteConfig(cfg PromoteConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg = cfg
}

// HealthMetrics reports the control plane's probe traffic: health
// probes and failures, plus the quorum probes of promotions.
func (c *Cluster) HealthMetrics() netsim.Metrics {
	if c.healthMeter == nil {
		return netsim.Metrics{}
	}
	return c.healthMeter.Snapshot()
}

// ---------------------------------------------------------------------------
// partial replication: per-site product subscriptions

// Subscribe registers (or replaces) a site's subscription to the given
// product subtree roots; the primary holds everything and cannot
// subscribe.
func (c *Cluster) Subscribe(site string, roots ...int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.siteLocked(site)
	if n == nil {
		return fmt.Errorf("pdmtune: subscribe: unknown site %q", site)
	}
	if n == c.primary {
		return fmt.Errorf("pdmtune: subscribe: site %q is the primary and holds everything", site)
	}
	c.registryLocked().Subscribe(site, roots...)
	return nil
}

// Unsubscribe removes a site's subscription.
func (c *Cluster) Unsubscribe(site string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.siteLocked(site) == nil {
		return fmt.Errorf("pdmtune: unsubscribe: unknown site %q", site)
	}
	if c.sub != nil {
		c.sub.Unsubscribe(site)
	}
	return nil
}

// SubscriptionRoots returns a site's subscribed subtree roots (nil when
// the site replicates in full).
func (c *Cluster) SubscriptionRoots(site string) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sub == nil {
		return nil
	}
	return c.sub.Roots(site)
}

// registryLocked lazily creates the subscription registry against the
// current primary's database and installs the sync filter on its
// server.
func (c *Cluster) registryLocked() *subscribe.Registry {
	if c.sub == nil {
		c.sub = subscribe.New(c.primary.db)
		c.installSyncFilterLocked()
	}
	return c.sub
}

// installSyncFilterLocked points the current primary's wire server at
// the subscription registry: pulls that identify a subscribed site get
// a filtered delta, everyone else the full one.
func (c *Cluster) installSyncFilterLocked() {
	sub := c.sub
	c.primary.server.SetSyncFilter(func(site string) *wire.SyncFilter {
		keep, holds, ok := sub.FilterFor(site)
		if !ok {
			return nil
		}
		return &wire.SyncFilter{Keep: keep, Holds: holds}
	})
}

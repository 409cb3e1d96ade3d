// Package topology implements the multi-site layer of the PDM system
// and its control plane. Every database server of a cluster is a node
// (Site): the primary, and replica sites that hold a full copy of the
// primary's database and pull it forward over the WAN by VersionLog
// epoch. A node fronts its database with its own wire server, so
// clients at a site read over the LAN while only replication pulls
// (and the clients' writes, which the core layer routes past the
// replica) cross the WAN — the paper's worldwide deployment with the
// 256 kbit/s tax paid once per change instead of once per read.
//
// Cluster (cluster.go) is the control plane over the nodes: the
// registry, the fencing term, and the promotions that move the primary
// role between them (promote.go).
package topology

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// Site is one node of a cluster: a named location holding a database
// behind its own wire server. A node with an upstream is a replica
// that pulls the primary's changes; a node without one pulls nothing —
// the primary, or a deposed original primary waiting to rejoin. All
// methods are safe for concurrent use; syncs serialize against each
// other while readers proceed under the database's own locking.
type Site struct {
	name   string
	db     *minisql.DB
	server *wire.Server
	// link is the node's WAN profile to the primary and meter the meter
	// its pulls charge. Both are fixed before the node is registered as
	// a site: the original primary gets them when it rejoins, under the
	// control-plane lock, so every reader that found the node through
	// the registry sees them.
	meter *netsim.Meter
	link  netsim.Link

	mu sync.Mutex
	// upstream pulls deltas from the primary server across the site's
	// WAN link (nil for a node that pulls nothing). A promotion clears
	// it and re-points it, so it lives under the site lock.
	upstream  *wire.Client
	term      wire.TermSource
	retry     *wire.RetryPolicy
	lastEpoch uint64
	lastSync  time.Time
	synced    bool
	// partial marks the replica as subscription-bounded: holds is the
	// closure of object ids the last pull shipped, replaced wholesale on
	// every pull. A full replica has partial=false and holds=nil.
	partial bool
	holds   map[int64]bool
}

// New creates a node over a procedure-registered database, fronted by
// a fresh wire server. upstream is the transport its pulls cross (nil
// for a node that pulls nothing); link is the node's WAN profile and
// meter the meter upstream charges — both kept for reporting.
func New(name string, db *minisql.DB, upstream wire.Transport, meter *netsim.Meter, link netsim.Link) *Site {
	s := &Site{name: name, db: db, server: wire.NewServer(db), meter: meter, link: link}
	if upstream != nil {
		s.upstream = wire.NewClient(upstream)
	}
	return s
}

// NewPrimary creates the node a cluster starts around: no upstream, and
// named DemotedPrimarySite — the site name it rejoins under once a
// promotion has deposed it. Until then it is addressed as PrimarySite.
func NewPrimary(db *minisql.DB) *Site {
	return New(DemotedPrimarySite, db, nil, nil, netsim.Link{})
}

// Name returns the site's name.
func (s *Site) Name() string { return s.name }

// DB exposes the node's database.
func (s *Site) DB() *minisql.DB { return s.db }

// Server returns the wire server fronting the database — the server
// site-local sessions connect to.
func (s *Site) Server() *wire.Server { return s.server }

// Link returns the site's WAN profile to the primary.
func (s *Site) Link() netsim.Link { return s.link }

// Metrics returns the site's accumulated WAN traffic — the replication
// pulls charged to the site meter (zero value when the site has no
// meter).
func (s *Site) Metrics() netsim.Metrics {
	if s.meter == nil {
		return netsim.Metrics{}
	}
	return s.meter.Snapshot()
}

// Epoch returns the primary epoch the site last synced to (0 before
// the first sync; the promotion base once promoted).
func (s *Site) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEpoch
}

// Synced reports whether the site has completed at least one sync.
func (s *Site) Synced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced
}

// repoint replaces the site's replication source: future pulls go over
// the given transport (to the new primary after a failover), stamped
// with the site's term source and retried under its policy. The site's
// last-seen epoch is kept — epochs are comparable cluster-wide because
// every replica mirrors the primary's version log, so the site resumes
// pulling from where it was.
func (s *Site) repoint(upstream wire.Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := wire.NewClient(upstream)
	if s.term != nil {
		c.SetTermSource(s.term)
	}
	if s.retry != nil {
		c.SetRetry(s.retry)
	}
	s.upstream = c
}

// fence installs the fencing-term source stamped onto the site's pulls
// and a retry policy charging the site meter; both carry over to every
// later repoint.
func (s *Site) fence(ts wire.TermSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.term = ts
	s.retry = &wire.RetryPolicy{Meter: s.meter}
	if s.upstream != nil {
		s.upstream.SetTermSource(ts)
		s.upstream.SetRetry(s.retry)
	}
}

// promote makes the site the primary: it pulls nothing from now on.
// epoch is the promotion base, recorded as the site's last-seen epoch
// for reporting.
func (s *Site) promote(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.upstream = nil
	if epoch > s.lastEpoch {
		s.lastEpoch = epoch
	}
}

// rewind makes a deposed primary pull from the given epoch onward, as
// a replica that has not synced yet. The caller re-points its upstream.
func (s *Site) rewind(fromEpoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastEpoch = fromEpoch
	s.synced = false
}

// Partial reports whether the replica is subscription-bounded: it
// holds only the closure of its subscribed subtrees, and reads outside
// it must fall through to the primary.
func (s *Site) Partial() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partial
}

// Holds reports whether the replica holds the structure rows of the
// given object id. A full replica holds everything.
func (s *Site) Holds(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.partial {
		return true
	}
	return s.holds[id]
}

// SyncStats reports one replication pull.
type SyncStats struct {
	// Since and Epoch bound the pull: the site advanced from Since to
	// Epoch.
	Since, Epoch uint64
	// Keys is the number of modified version keys the delta covered,
	// Rows the number of full rows re-shipped for them.
	Keys, Rows int
}

// Sync pulls the delta above the site's last-seen epoch from the
// primary and applies it transactionally to the replica. Readers at
// the site block only for the apply (the replica engine's write lock),
// not for the WAN transfer. Concurrent syncs serialize; each pulls
// from the epoch the previous one established. A node without an
// upstream has nothing to pull and reports an empty pull.
func (s *Site) Sync(ctx context.Context) (SyncStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked(ctx)
}

func (s *Site) syncLocked(ctx context.Context) (SyncStats, error) {
	if s.upstream == nil {
		return SyncStats{Since: s.lastEpoch, Epoch: s.lastEpoch}, nil
	}
	d, err := s.upstream.SyncFrom(ctx, s.lastEpoch, s.name)
	if err != nil {
		return SyncStats{}, fmt.Errorf("topology: site %s: pull: %w", s.name, err)
	}
	if s.synced && s.partial && s.needsBackfillLocked(d) {
		// Rows skipped by earlier filtered pulls are now required here
		// (the subscription was dropped, or its closure gained keys),
		// and no incremental delta can contain them — they were not
		// modified. Recover coverage with one snapshot pull from epoch
		// zero; the apply below replaces the replica wholesale.
		d, err = s.upstream.SyncFrom(ctx, 0, s.name)
		if err != nil {
			return SyncStats{}, fmt.Errorf("topology: site %s: backfill pull: %w", s.name, err)
		}
	}
	if err := s.db.ApplyDeltaCtx(ctx, d); err != nil {
		return SyncStats{}, fmt.Errorf("topology: site %s: apply: %w", s.name, err)
	}
	if d.Partial {
		s.partial = true
		s.holds = make(map[int64]bool, len(d.Holds))
		for _, k := range d.Holds {
			s.holds[k] = true
		}
	} else {
		s.partial = false
		s.holds = nil
	}
	if s.meter != nil && (d.Partial || d.Skipped > 0) {
		s.meter.Add(netsim.Metrics{SubscribedRows: d.RowCount(), SkippedRows: d.Skipped})
	}
	stats := SyncStats{Since: d.Since, Epoch: d.Epoch, Keys: len(d.Stamps), Rows: d.RowCount()}
	s.lastEpoch = d.Epoch
	s.lastSync = time.Now()
	s.synced = true
	return stats, nil
}

// needsBackfillLocked reports whether an incremental delta cannot
// restore this formerly-partial replica's required coverage: the
// subscription was dropped (the delta is full again) or its closure
// gained keys whose rows were never shipped here.
func (s *Site) needsBackfillLocked(d *storage.Delta) bool {
	if !d.Partial {
		return true
	}
	for _, k := range d.Holds {
		if !s.holds[k] {
			return true
		}
	}
	return false
}

// SyncIfStale syncs when the site's last successful sync is older than
// bound (and always when the site never synced, or when bound is 0).
// It is the read-time hook of bounded-staleness sessions: a session
// opened with a staleness bound calls this at the start of every
// action, so no read is served from a replica more than bound behind
// the last check.
func (s *Site) SyncIfStale(ctx context.Context, bound time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.synced && bound > 0 && time.Since(s.lastSync) <= bound {
		return nil
	}
	_, err := s.syncLocked(ctx)
	return err
}

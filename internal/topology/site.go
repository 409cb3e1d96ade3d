// Package topology implements the multi-site layer of the PDM system:
// replica sites that hold a full copy of the primary's database and
// pull it forward over the WAN by VersionLog epoch. A site fronts its
// replica with its own wire server, so clients at the site read over
// the LAN while only replication pulls (and the clients' writes, which
// the core layer routes past the replica) cross the WAN — the paper's
// worldwide deployment with the 256 kbit/s tax paid once per change
// instead of once per read.
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

// Site is one replica site: a named location holding a synchronized
// copy of the primary's database. All methods are safe for concurrent
// use; syncs serialize against each other while readers proceed under
// the replica engine's own locking.
type Site struct {
	name   string
	db     *minisql.DB
	server *wire.Server
	// primary pulls deltas from the primary server across the site's
	// WAN link; its transport charges the site meter.
	meter *netsim.Meter
	link  netsim.Link

	mu sync.Mutex
	// primary pulls deltas from the primary server across the site's
	// WAN link; its transport charges the site meter. Repoint swaps it
	// after a failover, so it lives under the site lock.
	primary   *wire.Client
	term      wire.TermSource
	retry     *wire.RetryPolicy
	lastEpoch uint64
	lastSync  time.Time
	synced    bool
	// isPrimary marks a promoted site: its database is the cluster's
	// write target, so pulls become no-ops (there is nothing upstream to
	// pull from).
	isPrimary bool
	// partial marks the replica as subscription-bounded: holds is the
	// closure of object ids the last pull shipped, replaced wholesale on
	// every pull. A full replica has partial=false and holds=nil.
	partial bool
	holds   map[int64]bool
}

// New creates a site over an (empty, procedure-registered) replica
// database and a transport to the primary. link is the site's WAN
// profile and meter the meter that transport charges — both kept for
// reporting.
func New(name string, db *minisql.DB, primary wire.Transport, meter *netsim.Meter, link netsim.Link) *Site {
	return NewWithServer(name, db, wire.NewServer(db), primary, meter, link)
}

// NewWithServer is New over an already-running wire server — how a
// deposed primary rejoins the cluster as a replica without dropping
// the sessions still connected to its server.
func NewWithServer(name string, db *minisql.DB, server *wire.Server, primary wire.Transport, meter *netsim.Meter, link netsim.Link) *Site {
	return &Site{
		name:    name,
		db:      db,
		server:  server,
		primary: wire.NewClient(primary),
		meter:   meter,
		link:    link,
	}
}

// Name returns the site's name.
func (s *Site) Name() string { return s.name }

// DB exposes the site's replica database.
func (s *Site) DB() *minisql.DB { return s.db }

// Server returns the wire server fronting the replica — the server
// site-local sessions connect to.
func (s *Site) Server() *wire.Server { return s.server }

// Link returns the site's WAN profile to the primary.
func (s *Site) Link() netsim.Link { return s.link }

// Meter returns the site's WAN meter (replication pulls are charged to
// it); nil for unmetered sites.
func (s *Site) Meter() *netsim.Meter { return s.meter }

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
// the first sync).
func (s *Site) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEpoch
}

// Synced reports whether the site has completed at least one sync.
func (s *Site) Synced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced || s.isPrimary
}

// IsPrimary reports whether the site has been promoted to primary.
func (s *Site) IsPrimary() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.isPrimary
}

// Repoint replaces the site's replication source: future pulls go over
// the given transport (to the new primary after a failover). The term
// source and retry policy of the old pull client carry over. The site's
// last-seen epoch is kept — epochs are comparable cluster-wide because
// every replica mirrors the primary's version log, so the site resumes
// pulling from where it was.
func (s *Site) Repoint(primary wire.Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := wire.NewClient(primary)
	if s.term != nil {
		c.SetTermSource(s.term)
	}
	if s.retry != nil {
		c.SetRetry(s.retry)
	}
	s.primary = c
}

// SetTermSource installs the fencing-term source stamped onto the
// site's sync pulls (and preserved across Repoint).
func (s *Site) SetTermSource(ts wire.TermSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.term = ts
	s.primary.SetTermSource(ts)
}

// SetRetry installs the retry policy of the site's pull client (and
// preserves it across Repoint).
func (s *Site) SetRetry(p *wire.RetryPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retry = p
	s.primary.SetRetry(p)
}

// BecomePrimary flips the site into the primary role: syncs become
// no-ops and Synced is always true. epoch is the promotion-base epoch —
// recorded as the site's last-seen epoch for reporting.
func (s *Site) BecomePrimary(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.isPrimary = true
	if epoch > s.lastEpoch {
		s.lastEpoch = epoch
	}
}

// BecomeReplica flips a (deposed) primary back into the replica role,
// pulling from the given epoch onward.
func (s *Site) BecomeReplica(fromEpoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.isPrimary = false
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
// from the epoch the previous one established.
func (s *Site) Sync(ctx context.Context) (SyncStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked(ctx)
}

func (s *Site) syncLocked(ctx context.Context) (SyncStats, error) {
	if s.isPrimary {
		// The promoted site is the source of truth; nothing to pull.
		return SyncStats{Since: s.lastEpoch, Epoch: s.lastEpoch}, nil
	}
	d, err := s.primary.SyncFrom(ctx, s.lastEpoch, s.name)
	if err != nil {
		return SyncStats{}, fmt.Errorf("topology: site %s: pull: %w", s.name, err)
	}
	if s.synced && s.partial && s.needsBackfillLocked(d) {
		// Rows skipped by earlier filtered pulls are now required here
		// (the subscription was dropped, or its closure gained keys),
		// and no incremental delta can contain them — they were not
		// modified. Recover coverage with one snapshot pull from epoch
		// zero; the apply below replaces the replica wholesale.
		d, err = s.primary.SyncFrom(ctx, 0, s.name)
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
// opened with a staleness bound calls this before every action's first
// fetch, so no read is served from a replica more than bound behind
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

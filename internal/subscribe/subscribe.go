// Package subscribe implements partial replication by product
// subscription: a site registers a set of product subtree roots, the
// registry resolves them — via the link structure of the primary's
// database — to the closure of version keys below them, and the sync
// path ships a site only the rows of its closure. The closure is
// maintained incrementally as links change: every refresh asks the
// version log for the keys modified since the last one and re-derives
// only those adjacency entries, so steady-state maintenance cost is
// proportional to the write rate, not the database size.
package subscribe

import (
	"sort"
	"sync"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// structureTables are the tables a subscription bounds; every other
// table (rule catalogs, future extensions) replicates in full. link
// rows are version-keyed by their left (parent) object and
// specified_by rows by their left (component) object, so one closure
// over object ids covers the row sets of all five tables.
var structureTables = map[string]bool{
	"assy": true, "comp": true, "link": true, "spec": true, "specified_by": true,
}

// Registry resolves per-site subscriptions against one primary
// database. It is safe for concurrent use (the wire server resolves
// filters from connection goroutines while the control plane
// subscribes and promotes).
type Registry struct {
	mu sync.Mutex
	db *minisql.DB
	// roots maps a site to its subscribed subtree roots.
	roots map[string][]int64
	// children is the downward adjacency (link ∪ specified_by) the
	// closures are computed over, maintained incrementally.
	children map[int64][]int64
	// built marks the adjacency as initialized; lastEpoch is the
	// version-log epoch the adjacency is current to.
	built     bool
	lastEpoch uint64
}

// New creates a registry resolving closures against db.
func New(db *minisql.DB) *Registry {
	return &Registry{db: db, roots: map[string][]int64{}}
}

// Subscribe registers (or replaces) a site's subscription: the site
// will be shipped exactly the closure of the given subtree roots.
func (r *Registry) Subscribe(site string, roots ...int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.roots[site] = append([]int64(nil), roots...)
}

// Unsubscribe removes a site's subscription; its next pull ships the
// full delta again.
func (r *Registry) Unsubscribe(site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.roots, site)
}

// Subscribed reports whether the site has a subscription.
func (r *Registry) Subscribed(site string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.roots[site]
	return ok
}

// Roots returns a site's subscribed subtree roots (nil when the site
// has no subscription).
func (r *Registry) Roots(site string) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.roots[site]...)
}

// Retarget re-points the registry at a new primary database (the
// promotion hand-over). The adjacency is rebuilt from scratch on the
// next resolution — the new primary's version log numbers epochs
// differently than the old one's incremental state assumed.
func (r *Registry) Retarget(db *minisql.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.db = db
	r.built = false
	r.children = nil
	r.lastEpoch = 0
}

// FilterFor resolves a site's subscription into a sync filter: a keep
// predicate over (table, version key) and the sorted closure of object
// ids the site holds after applying a delta filtered by it. ok is
// false when the site has no subscription (full replication). The
// returned predicate is immutable — later refreshes build new closure
// maps — so it is safe to use after the registry moves on.
func (r *Registry) FilterFor(site string) (keep func(table string, key int64) bool, holds []int64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	roots, ok := r.roots[site]
	if !ok {
		return nil, nil, false
	}
	r.refreshLocked()
	cl := r.closureLocked(roots)
	holds = make([]int64, 0, len(cl))
	for k := range cl {
		holds = append(holds, k)
	}
	sort.Slice(holds, func(i, j int) bool { return holds[i] < holds[j] })
	keep = func(table string, key int64) bool {
		if !structureTables[table] {
			return true
		}
		return cl[key]
	}
	return keep, holds, true
}

// Closure returns the current closure of a site's subscription as a
// sorted id list (nil when the site has no subscription).
func (r *Registry) Closure(site string) []int64 {
	_, holds, ok := r.FilterFor(site)
	if !ok {
		return nil
	}
	return holds
}

// refreshLocked brings the adjacency up to the version log: a full
// link scan on first use, then only the modified keys' entries.
func (r *Registry) refreshLocked() {
	if r.db == nil {
		return
	}
	stamps, epoch := r.db.ModifiedSince(r.lastEpoch)
	if !r.built {
		r.children = map[int64][]int64{}
		sess := r.db.NewSession()
		for _, table := range []string{"link", "specified_by"} {
			res, err := sess.Exec("SELECT left, right FROM " + table)
			if err != nil {
				continue // table not created yet: nothing to traverse
			}
			for _, row := range res.Rows {
				l, rr, ok := edgeOf(row)
				if !ok {
					continue
				}
				r.children[l] = append(r.children[l], rr)
			}
		}
		r.built = true
		r.lastEpoch = epoch
		return
	}
	if len(stamps) == 0 {
		return
	}
	// Incremental: a modified version key k may mean "the link rows
	// under parent k changed" (link and specified_by are keyed by
	// left), so k's adjacency entry is re-derived from scratch. Object
	// mutations that touch no links re-derive an unchanged entry —
	// idempotent, and still proportional to the write set.
	sess := r.db.NewSession()
	for k := range stamps {
		var kids []int64
		for _, table := range []string{"link", "specified_by"} {
			res, err := sess.Exec("SELECT right FROM "+table+" WHERE left = ?", types.NewInt(k))
			if err != nil {
				continue
			}
			for _, row := range res.Rows {
				if len(row) > 0 && row[0].Kind() == types.KindInt {
					kids = append(kids, row[0].Int())
				}
			}
		}
		if len(kids) == 0 {
			delete(r.children, k)
		} else {
			r.children[k] = kids
		}
	}
	r.lastEpoch = epoch
}

// closureLocked computes the downward closure of the given roots over
// the current adjacency (the roots themselves included). The result is
// a fresh map — callers may hold it past the lock.
func (r *Registry) closureLocked(roots []int64) map[int64]bool {
	cl := make(map[int64]bool, len(roots))
	frontier := append([]int64(nil), roots...)
	for _, id := range frontier {
		cl[id] = true
	}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, id := range frontier {
			for _, kid := range r.children[id] {
				if !cl[kid] {
					cl[kid] = true
					next = append(next, kid)
				}
			}
		}
		frontier = next
	}
	return cl
}

func edgeOf(row storage.Row) (int64, int64, bool) {
	if len(row) < 2 {
		return 0, 0, false
	}
	l, r := row[0], row[1]
	if l.Kind() != types.KindInt || r.Kind() != types.KindInt {
		return 0, 0, false
	}
	return l.Int(), r.Int(), true
}

// Package cache implements the client-side structure cache of the PDM
// system: a bounded, concurrency-safe LRU store whose entries carry
// server version stamps. The PDM layer (internal/core) layers it
// behind its read path as a decorating fetcher — a remote site then
// re-ships a product structure only when the server's per-object
// version counters say it changed, turning the repeat cost of a
// worldwide Query/Expand/MLE into one small validate round trip.
//
// The package is deliberately ignorant of PDM types: entries hold
// opaque values plus the object ids that govern their lifetime. Two
// mechanisms retire an entry before LRU pressure does:
//
//   - validate-on-use: the reader compares the entry's fetch-time
//     stamp against the server's version log (the wire TypeValidate
//     exchange) and drops entries whose objects changed;
//   - invalidate-on-write: a client that itself modifies objects drops
//     every entry depending on them, locally and immediately, via the
//     reverse index over IDs.
package cache

import (
	"container/list"
	"sync"
)

// Key identifies one cached read: the object the read was rooted at
// and the PDM action that produced it. Everything else the result
// depends on (user, rules, strategy) is fixed for the store's
// lifetime: its owner starts an empty store when that changes.
type Key struct {
	// ID is the root object id of the cached read (the expanded
	// parent, the recursive root, the looked-up object).
	ID int64
	// Action is the PDM action (empty for reads outside one, such as
	// type lookups).
	Action string
}

// Entry is one cached read result.
type Entry struct {
	// Value is the cached payload (owned by the cache; callers clone
	// on put and get).
	Value any
	// Stamp is the server's modification epoch at fetch time.
	Stamp uint64
	// IDs are the object ids the entry depends on: their server-side
	// versions govern its freshness (the reader sends (id, Stamp) pairs
	// over the validate exchange), and a local write touching one
	// retires it (an empty slice opts out of both).
	IDs []int64
}

// Store is a bounded LRU of versioned entries. One session owns it;
// it is safe for concurrent use, so another goroutine may read it.
type Store struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *slot
	items map[Key]*list.Element
	// byID maps an object id to the keys of entries it invalidates.
	byID map[int64]map[Key]struct{}
}

type slot struct {
	key   Key
	entry Entry
}

// DefaultSize bounds a store created with a non-positive size.
const DefaultSize = 4096

// New returns a store bounded to the given number of entries
// (DefaultSize when size <= 0).
func New(size int) *Store {
	if size <= 0 {
		size = DefaultSize
	}
	return &Store{
		cap:   size,
		ll:    list.New(),
		items: map[Key]*list.Element{},
		byID:  map[int64]map[Key]struct{}{},
	}
}

// Cap returns the configured entry bound.
func (s *Store) Cap() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cap
}

// Len returns the current entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Get returns the entry under the key and marks it most recently
// used.
func (s *Store) Get(key Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return Entry{}, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*slot).entry, true
}

// Put stores an entry under the key, replacing any previous entry and
// evicting the least recently used entry beyond the bound. At the bound
// the evicted element is recycled for the new entry, so a store that
// churns allocates nothing per eviction.
func (s *Store) Put(key Key, e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	switch {
	case ok:
		s.unindex(key, el.Value.(*slot).entry)
	case s.ll.Len() < s.cap:
		el = s.ll.PushFront(&slot{key: key})
		s.items[key] = el
	default:
		el = s.ll.Back()
		old := el.Value.(*slot)
		delete(s.items, old.key)
		s.unindex(old.key, old.entry)
		old.key = key
		s.items[key] = el
	}
	el.Value.(*slot).entry = e
	s.index(key, e)
	s.ll.MoveToFront(el)
}

// Invalidate drops every entry (across all actions) whose
// IDs contain any of the given object ids, returning the
// number of entries dropped. This is the no-round-trip path a
// writer uses on its own modifications.
func (s *Store) Invalidate(ids ...int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for _, id := range ids {
		for key := range s.byID[id] {
			if el, ok := s.items[key]; ok {
				s.removeElement(el)
				dropped++
			}
		}
	}
	return dropped
}

// index/unindex maintain the id → keys reverse map; both run under mu.

func (s *Store) index(key Key, e Entry) {
	for _, id := range e.IDs {
		set := s.byID[id]
		if set == nil {
			set = map[Key]struct{}{}
			s.byID[id] = set
		}
		set[key] = struct{}{}
	}
}

func (s *Store) unindex(key Key, e Entry) {
	for _, id := range e.IDs {
		if set := s.byID[id]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(s.byID, id)
			}
		}
	}
}

func (s *Store) removeElement(el *list.Element) {
	sl := el.Value.(*slot)
	s.ll.Remove(el)
	delete(s.items, sl.key)
	s.unindex(sl.key, sl.entry)
}

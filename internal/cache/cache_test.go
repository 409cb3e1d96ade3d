package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func key(id int64) Key { return Key{ID: id, Action: "mle"} }

func TestLRUBound(t *testing.T) {
	s := New(3)
	for i := int64(1); i <= 10; i++ {
		s.Put(key(i), Entry{Value: i, IDs: []int64{i}})
		if s.Len() > 3 {
			t.Fatalf("after %d puts: len = %d, want <= 3", i, s.Len())
		}
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	// The three most recent survive, the oldest were evicted.
	for i := int64(8); i <= 10; i++ {
		if _, ok := s.Get(key(i)); !ok {
			t.Errorf("entry %d missing, want resident", i)
		}
	}
	if _, ok := s.Get(key(1)); ok {
		t.Error("entry 1 resident, want evicted")
	}
}

func TestLRUTouchOnGet(t *testing.T) {
	s := New(2)
	s.Put(key(1), Entry{Value: 1})
	s.Put(key(2), Entry{Value: 2})
	s.Get(key(1)) // 1 is now the most recent
	s.Put(key(3), Entry{Value: 3})
	if _, ok := s.Get(key(1)); !ok {
		t.Error("recently used entry 1 evicted")
	}
	if _, ok := s.Get(key(2)); ok {
		t.Error("least recently used entry 2 survived")
	}
}

func TestInvalidateByID(t *testing.T) {
	s := New(10)
	// Entry for parent 1 depends on children 10, 11; entry for parent 2
	// depends on child 11 only; entry 3 is independent.
	s.Put(key(1), Entry{Value: "a", IDs: []int64{1, 10, 11}})
	s.Put(key(2), Entry{Value: "b", IDs: []int64{2, 11}})
	s.Put(key(3), Entry{Value: "c", IDs: []int64{3}})
	if n := s.Invalidate(11); n != 2 {
		t.Fatalf("Invalidate(11) dropped %d entries, want 2", n)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Error("entry depending on 11 survived")
	}
	if _, ok := s.Get(key(2)); ok {
		t.Error("entry depending on 11 survived")
	}
	if _, ok := s.Get(key(3)); !ok {
		t.Error("independent entry dropped")
	}
	// The reverse index forgets dropped entries: a second invalidation
	// is a no-op.
	if n := s.Invalidate(11); n != 0 {
		t.Errorf("second Invalidate(11) dropped %d entries, want 0", n)
	}
}

func TestInvalidateCrossesActions(t *testing.T) {
	s := New(10)
	a := Key{ID: 1, Action: "mle"}
	b := Key{ID: 1, Action: "expand"}
	s.Put(a, Entry{Value: "a", IDs: []int64{1}})
	s.Put(b, Entry{Value: "b", IDs: []int64{1}})
	if n := s.Invalidate(1); n != 2 {
		t.Fatalf("Invalidate dropped %d entries, want both actions", n)
	}
}

func TestReplaceReindexes(t *testing.T) {
	s := New(10)
	s.Put(key(1), Entry{Value: "old", IDs: []int64{1, 10}})
	s.Put(key(1), Entry{Value: "new", IDs: []int64{1, 20}})
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1 after replace", s.Len())
	}
	if n := s.Invalidate(10); n != 0 {
		t.Error("stale reverse-index entry for 10 survived the replace")
	}
	if n := s.Invalidate(20); n != 1 {
		t.Errorf("Invalidate(20) dropped %d, want 1", n)
	}
}

// refLRU is the naive reference store: a slice in recency order, most
// recent first, searched linearly.
type refLRU struct {
	cap   int
	slots []slot
}

func (r *refLRU) find(k Key) int {
	return slices.IndexFunc(r.slots, func(s slot) bool { return s.key == k })
}

func (r *refLRU) get(k Key) (Entry, bool) {
	i := r.find(k)
	if i < 0 {
		return Entry{}, false
	}
	s := r.slots[i]
	r.slots = append([]slot{s}, slices.Delete(r.slots, i, i+1)...)
	return s.entry, true
}

func (r *refLRU) put(k Key, e Entry) {
	if i := r.find(k); i >= 0 {
		r.slots = slices.Delete(r.slots, i, i+1)
	}
	r.slots = append([]slot{{key: k, entry: e}}, r.slots...)
	if len(r.slots) > r.cap {
		r.slots = r.slots[:r.cap]
	}
}

func (r *refLRU) invalidate(ids ...int64) int {
	kept := r.slots[:0:0]
	for _, s := range r.slots {
		if !slices.ContainsFunc(s.entry.IDs, func(id int64) bool { return slices.Contains(ids, id) }) {
			kept = append(kept, s)
		}
	}
	dropped := len(r.slots) - len(kept)
	r.slots = kept
	return dropped
}

// TestStoreMatchesReferenceLRU: over random Put/Get/Invalidate
// sequences the store holds the same entries in the same recency order
// as the naive reference — so it evicts the same ones — with the same
// Len, Get results, Invalidate counts and a reverse index naming
// exactly the resident entries.
func TestStoreMatchesReferenceLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		size := 1 + rng.Intn(6)
		s, ref := New(size), &refLRU{cap: size}
		randKey := func() Key { return Key{ID: int64(rng.Intn(12)), Action: []string{"mle", "expand"}[rng.Intn(2)]} }
		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				k := randKey()
				ids := make([]int64, rng.Intn(3))
				for i := range ids {
					ids[i] = int64(rng.Intn(12))
				}
				e := Entry{Value: op, IDs: ids}
				s.Put(k, e)
				ref.put(k, e)
			case 2:
				k := randKey()
				got, ok := s.Get(k)
				want, wantOK := ref.get(k)
				if ok != wantOK || got.Value != want.Value {
					t.Fatalf("round %d op %d: Get(%v) = %v, %v; reference %v, %v", round, op, k, got.Value, ok, want.Value, wantOK)
				}
			default:
				ids := []int64{int64(rng.Intn(12)), int64(rng.Intn(12))}
				if got, want := s.Invalidate(ids...), ref.invalidate(ids...); got != want {
					t.Fatalf("round %d op %d: Invalidate(%v) = %d, reference %d", round, op, ids, got, want)
				}
			}
			if s.Len() != len(ref.slots) {
				t.Fatalf("round %d op %d: Len %d, reference %d", round, op, s.Len(), len(ref.slots))
			}
			var order []Key
			for el := s.ll.Front(); el != nil; el = el.Next() {
				order = append(order, el.Value.(*slot).key)
			}
			var want []Key
			index := map[int64]map[Key]struct{}{}
			for _, sl := range ref.slots {
				want = append(want, sl.key)
				for _, id := range sl.entry.IDs {
					if index[id] == nil {
						index[id] = map[Key]struct{}{}
					}
					index[id][sl.key] = struct{}{}
				}
			}
			if !slices.Equal(order, want) {
				t.Fatalf("round %d op %d: recency order %v, reference %v", round, op, order, want)
			}
			if len(s.items) != len(want) || !reflect.DeepEqual(s.byID, index) {
				t.Fatalf("round %d op %d: %d indexed keys, reverse index %v; reference %v", round, op, len(s.items), s.byID, index)
			}
		}
	}
}

// TestEvictingPutAllocatesNothing: at the bound, Put recycles the
// evicted element for the new entry.
func TestEvictingPutAllocatesNothing(t *testing.T) {
	s := New(64)
	var v any = "assy"
	id := int64(0)
	put := func() {
		id++
		s.Put(Key{ID: id, Action: "\x00type"}, Entry{Value: v})
	}
	for i := 0; i < 64; i++ {
		put()
	}
	if n := testing.AllocsPerRun(1000, put); n > 0.05 {
		t.Errorf("an evicting Put allocates %.2f times, want 0", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := int64(i % 100)
				k := Key{ID: id, Action: fmt.Sprintf("a%d", g%2)}
				switch i % 3 {
				case 0:
					s.Put(k, Entry{Value: i, IDs: []int64{id, id + 1000}})
				case 1:
					s.Get(k)
				default:
					s.Invalidate(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 64 {
		t.Errorf("len = %d, want <= 64", s.Len())
	}
}

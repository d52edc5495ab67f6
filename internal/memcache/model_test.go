package memcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// modelStore is the reference the Store is held to: a plain map, a recency
// list as a slice of keys (front first) and the byte budget applied the
// obvious way.  It shares no code with the Store beyond entrySize.  Expiry is
// lazy in both: an entry past its TTL stays until an operation looks it up.
type modelStore struct {
	items    map[string]*modelEntry
	order    []string // most recently used first
	maxBytes int64
	now      func() time.Time

	hits, misses, evictions, expired uint64
}

type modelEntry struct {
	value   []byte
	expires time.Time
}

func (m *modelStore) bytes() int64 {
	var n int64
	for k, e := range m.items {
		n += entrySize(k, e.value)
	}
	return n
}

func (m *modelStore) touchLRU(key string) {
	if i := slices.Index(m.order, key); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	m.order = slices.Insert(m.order, 0, key)
}

func (m *modelStore) remove(key string) {
	delete(m.items, key)
	i := slices.Index(m.order, key)
	m.order = slices.Delete(m.order, i, i+1)
}

// lookup finds a live entry, collecting an expired one.
func (m *modelStore) lookup(key string) *modelEntry {
	e, ok := m.items[key]
	if !ok {
		return nil
	}
	if !e.expires.IsZero() && m.now().After(e.expires) {
		m.remove(key)
		m.expired++
		return nil
	}
	return e
}

// store is an unconditional write: it does not look the key up, so it neither
// counts an expired predecessor nor cares that there was one.
func (m *modelStore) store(key string, value []byte, ttl time.Duration) {
	e := &modelEntry{value: bytes.Clone(value)}
	if ttl > 0 {
		e.expires = m.now().Add(ttl)
	}
	m.items[key] = e
	m.touchLRU(key)
	for m.maxBytes > 0 && m.bytes() > m.maxBytes && len(m.order) > 1 {
		m.remove(m.order[len(m.order)-1])
		m.evictions++
	}
}

func (m *modelStore) get(key string) ([]byte, bool) {
	e := m.lookup(key)
	if e == nil {
		m.misses++
		return nil, false
	}
	m.hits++
	m.touchLRU(key)
	return e.value, true
}

func (m *modelStore) del(key string) bool {
	if m.lookup(key) == nil {
		return false
	}
	m.remove(key)
	return true
}

// audit compares the Store's whole state with the model's, reading the one
// shard directly so that the comparison itself moves nothing.
func audit(t *testing.T, step int, op string, s *Store, m *modelStore) {
	t.Helper()
	sh := s.shards[0]
	if len(sh.items) != len(m.items) || sh.lru.Len() != len(m.order) {
		t.Fatalf("step %d (%s): store holds %d items (%d in LRU), model %d", step, op, len(sh.items), sh.lru.Len(), len(m.items))
	}
	var sum int64
	i := 0
	for el := sh.lru.Front(); el != nil; el, i = el.Next(), i+1 {
		e := el.Value.(*entry)
		if e.key != m.order[i] {
			t.Fatalf("step %d (%s): LRU position %d holds %q, model %q — eviction would pick a different victim", step, op, i, e.key, m.order[i])
		}
		me := m.items[e.key]
		if sh.items[e.key] != e || e.elem != el {
			t.Fatalf("step %d (%s): %q: map, entry and LRU element disagree", step, op, e.key)
		}
		if !bytes.Equal(e.value, me.value) {
			t.Fatalf("step %d (%s): %q holds %d bytes %.16q, model %d bytes %.16q", step, op, e.key, len(e.value), e.value, len(me.value), me.value)
		}
		if !e.expires.Equal(me.expires) {
			t.Fatalf("step %d (%s): %q expires %v, model %v", step, op, e.key, e.expires, me.expires)
		}
		sum += entrySize(e.key, e.value)
	}
	st := s.Stats()
	if st.Bytes != sum || sh.bytes != sum || st.Items != int64(len(m.items)) {
		t.Fatalf("step %d (%s): Stats().Bytes=%d shard=%d, Σ entrySize=%d; Items=%d want %d", step, op, st.Bytes, sh.bytes, sum, st.Items, len(m.items))
	}
	if st.Hits != m.hits || st.Misses != m.misses || st.Evictions != m.evictions || st.Expired != m.expired {
		t.Fatalf("step %d (%s): counters hits/misses/evictions/expired %d/%d/%d/%d, model %d/%d/%d/%d",
			step, op, st.Hits, st.Misses, st.Evictions, st.Expired, m.hits, m.misses, m.evictions, m.expired)
	}
}

// TestModelConformance drives the Store and the model through one seeded
// random operation stream and compares their whole state after every step:
// values, presence, expiry, LRU order (so: victim order), byte accounting and
// counters.  Values shrink, fit and outgrow the resident array; the budget is
// small enough to evict; a fake clock runs the TTLs.  On top of the model's
// own semantics it pins what the in-place overwrite must keep: a write to a
// resident key reuses its entry and LRU element — and its value array when
// the value fits without idling more than half of it — and a ttl == 0 write
// clears an earlier expiry.
func TestModelConformance(t *testing.T) {
	now := time.Unix(1_000, 0)
	clock := func() time.Time { return now }
	const budget = 6 << 10
	store := New(Config{Shards: 1, MaxBytes: budget, Now: clock})
	model := &modelStore{items: map[string]*modelEntry{}, maxBytes: budget, now: clock}
	rng := rand.New(rand.NewSource(30))
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	val := func() []byte {
		sizes := []int{0, 1 + rng.Intn(24), 40 + rng.Intn(40), 300 + rng.Intn(100), 900 + rng.Intn(200)}
		v := make([]byte, sizes[rng.Intn(len(sizes))])
		rng.Read(v)
		return v
	}
	ttl := func() time.Duration {
		if rng.Intn(2) == 0 {
			return 0
		}
		return time.Duration(1+rng.Intn(20)) * time.Second
	}
	sh := store.shards[0]
	var inPlace, reallocated, clearedExpiry int
	// wrote checks a successful write of v to key against the entry that was
	// resident before it (nil if none).
	wrote := func(step int, key string, v []byte, before *entry, beforeArr []byte, hadExpiry bool, ttl time.Duration) {
		e := sh.items[key]
		if before == nil {
			return
		}
		if e != before {
			t.Fatalf("step %d: overwrite of %q allocated a new entry", step, key)
		}
		if n := len(v); n > 0 && n <= cap(beforeArr) && cap(beforeArr) <= 2*n+64 {
			if &e.value[0] != &beforeArr[:1][0] {
				t.Fatalf("step %d: %d-byte overwrite of %q left its %d-byte array for a new one", step, n, key, cap(beforeArr))
			}
			inPlace++
		} else if n > 0 {
			if cap(beforeArr) > 0 && &e.value[0] == &beforeArr[:1][0] {
				t.Fatalf("step %d: %d-byte value of %q sits in a %d-byte array", step, n, key, cap(beforeArr))
			}
			reallocated++
		}
		if hadExpiry && ttl == 0 {
			if !e.expires.IsZero() {
				t.Fatalf("step %d: ttl 0 write to %q kept expiry %v", step, key, e.expires)
			}
			clearedExpiry++
		}
	}

	for step := 0; step < 30000; step++ {
		key := keys[rng.Intn(len(keys))]
		before := sh.items[key]
		var beforeArr []byte
		var hadExpiry bool
		if before != nil {
			beforeArr, hadExpiry = before.value[:0:cap(before.value)], !before.expires.IsZero()
		}
		var op string
		switch rng.Intn(8) {
		case 0, 1, 2:
			op = "set"
			v, d := val(), ttl()
			store.Set(key, v, d)
			model.store(key, v, d)
			wrote(step, key, v, before, beforeArr, hadExpiry, d)
		case 3:
			op = "delete"
			if got, want := store.Delete(key), model.del(key); got != want {
				t.Fatalf("step %d: delete(%q)=%v want %v", step, key, got, want)
			}
		case 4:
			op = "get"
			got, gotOK := store.Get(key)
			want, wantOK := model.get(key)
			if gotOK != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("step %d: get(%q)=(%.16q,%v) want (%.16q,%v)", step, key, got, gotOK, want, wantOK)
			}
			if gotOK && len(got) > 0 && &got[0] == &sh.items[key].value[0] {
				t.Fatalf("step %d: get(%q) returned the resident array, which the next write overwrites", step, key)
			}
		case 5:
			op = "view"
			var got []byte
			gotOK := store.View(key, func(v []byte) { got = bytes.Clone(v) })
			want, wantOK := model.get(key)
			if gotOK != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("step %d: view(%q)=(%.16q,%v) want (%.16q,%v)", step, key, got, gotOK, want, wantOK)
			}
		case 6, 7:
			op = "clock"
			now = now.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
		}
		audit(t, step, op, store, model)
	}
	if model.evictions == 0 || model.expired == 0 || inPlace == 0 || reallocated == 0 || clearedExpiry == 0 {
		t.Fatalf("the stream missed a case: %d evictions, %d expiries, %d in-place and %d reallocating overwrites, %d cleared expiries",
			model.evictions, model.expired, inPlace, reallocated, clearedExpiry)
	}
	t.Logf("%d evictions, %d expiries, %d in-place and %d reallocating overwrites, %d cleared expiries",
		model.evictions, model.expired, inPlace, reallocated, clearedExpiry)
}

// TestViewNeverSeesTornValue: Set overwrites the resident array in place, so
// View's visitor and Set must exclude each other.  Writers alternate uniform
// values of one length on one key; a visitor that saw two different bytes
// saw half of each.  Get's copy is held to the same.  Run under -race.
func TestViewNeverSeesTornValue(t *testing.T) {
	store := New(Config{})
	const key, size = "contended", 4096
	values := [][]byte{bytes.Repeat([]byte{'a'}, size), bytes.Repeat([]byte{'b'}, size), bytes.Repeat([]byte{'c'}, size)}
	store.Set(key, values[0], 0)
	uniform := func(v []byte) bool {
		return len(v) == size && bytes.Count(v, v[:1]) == size
	}
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	var torn, vanished atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				store.Set(key, values[(i+w)%len(values)], 0)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !store.View(key, func(v []byte) {
					if !uniform(v) {
						torn.Add(1)
					}
				}) {
					vanished.Add(1)
				}
				if v, ok := store.Get(key); !ok {
					vanished.Add(1)
				} else if !uniform(v) {
					torn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if torn.Load() != 0 || vanished.Load() != 0 {
		t.Fatalf("readers saw %d torn values and missed the key %d times", torn.Load(), vanished.Load())
	}
}

// TestOverwriteAllocatesNothing: a Set of a resident key whose new value fits
// its array allocates nothing (the benchmark's memcache.set_allocs probe).
func TestOverwriteAllocatesNothing(t *testing.T) {
	store := New(Config{})
	a, b := bytes.Repeat([]byte{1}, 1024), bytes.Repeat([]byte{2}, 1000)
	store.Set("k", a, 0)
	if n := testing.AllocsPerRun(100, func() {
		store.Set("k", b, 0)
		store.Set("k", a, 0)
	}); n != 0 {
		t.Fatalf("overwriting a resident key allocates %v times", n)
	}
}

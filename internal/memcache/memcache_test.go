package memcache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Delete removes key, reporting whether it was present.  No service deletes
// by key; the tests do, so that the model check reaches removeLocked, which
// eviction and expiry share, from any point of the LRU list.
func (s *Store) Delete(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := s.lookupLocked(sh, key)
	if e == nil {
		return false
	}
	sh.removeLocked(e)
	return true
}

func TestGetAfterSet(t *testing.T) {
	s := New(Config{})
	s.Set("k", []byte("v"), 0)
	got, ok := s.Get("k")
	if !ok || string(got) != "v" {
		t.Fatalf("get=%q ok=%v", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("hit on missing key")
	}
}

func TestSetOverwrites(t *testing.T) {
	s := New(Config{})
	s.Set("k", []byte("v1"), 0)
	s.Set("k", []byte("v2"), 0)
	got, _ := s.Get("k")
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
	if n := s.Stats().Items; n != 1 {
		t.Fatalf("items=%d", n)
	}
}

func TestValueIsolation(t *testing.T) {
	s := New(Config{})
	v := []byte("abc")
	s.Set("k", v, 0)
	v[0] = 'X' // mutating the caller's slice must not affect the store
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatalf("store aliased caller slice: %q", got)
	}
	got[0] = 'Y' // mutating the returned slice must not affect the store
	got2, _ := s.Get("k")
	if string(got2) != "abc" {
		t.Fatalf("get aliased store slice: %q", got2)
	}
}

func TestDelete(t *testing.T) {
	s := New(Config{})
	s.Set("k", []byte("v"), 0)
	if !s.Delete("k") {
		t.Fatal("delete missed present key")
	}
	if s.Delete("k") {
		t.Fatal("delete hit absent key")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("get after delete hit")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{Now: func() time.Time { return now }})
	s.Set("k", []byte("v"), time.Second)
	if _, ok := s.Get("k"); !ok {
		t.Fatal("fresh item missed")
	}
	now = now.Add(2 * time.Second)
	if _, ok := s.Get("k"); ok {
		t.Fatal("expired item hit")
	}
	if s.Stats().Expired != 1 {
		t.Fatalf("expired=%d", s.Stats().Expired)
	}
}

// TestNoClockReadWithoutTTL: an entry set without a TTL is never checked for
// expiry, so no read, write or delete of it consults the clock.
func TestNoClockReadWithoutTTL(t *testing.T) {
	reads := 0
	s := New(Config{Now: func() time.Time { reads++; return time.Unix(1000, 0) }})
	s.Set("k", []byte("v"), 0)
	s.Set("k", []byte("w"), 0)
	if got, ok := s.Get("k"); !ok || string(got) != "w" {
		t.Fatalf("get=%q ok=%v", got, ok)
	}
	if !s.View("k", func([]byte) {}) {
		t.Fatal("view missed")
	}
	s.Get("missing")
	if !s.Delete("k") {
		t.Fatal("delete missed")
	}
	if reads != 0 {
		t.Fatalf("clock read %d times on entries without a TTL", reads)
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	// Single shard so the LRU order is global and deterministic.
	s := New(Config{MaxBytes: 10 * (64 + 4 + 8), Shards: 1})
	for i := 0; i < 20; i++ {
		s.Set(fmt.Sprintf("key%d", i), make([]byte, 8), 0)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under byte pressure")
	}
	if st.Bytes > 10*(64+4+8) {
		t.Fatalf("bytes=%d exceeds budget", st.Bytes)
	}
	// The most recently set key must have survived.
	if _, ok := s.Get("key19"); !ok {
		t.Fatal("most recent key evicted")
	}
	// The oldest key must be gone.
	if _, ok := s.Get("key0"); ok {
		t.Fatal("oldest key survived past budget")
	}
}

func TestLRURecencyOnGet(t *testing.T) {
	s := New(Config{MaxBytes: 3 * (64 + 1 + 4), Shards: 1})
	s.Set("a", []byte("1234"), 0)
	s.Set("b", []byte("1234"), 0)
	s.Set("c", []byte("1234"), 0)
	s.Get("a") // refresh a
	s.Set("d", []byte("1234"), 0)
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently read key evicted")
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("least recently used key survived")
	}
}

func TestStatsCounters(t *testing.T) {
	s := New(Config{})
	s.Set("k", []byte("v"), 0)
	s.Get("k")
	s.Get("k")
	s.Get("missing")
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Items != 1 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	s := New(Config{MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%100)
				switch i % 4 {
				case 0:
					s.Set(key, []byte(fmt.Sprintf("g%d-%d", g, i)), 0)
				case 1:
					s.Get(key)
				case 2:
					s.Delete(key)
				case 3:
					s.View(key, func([]byte) {})
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: get-after-set always returns the set value (no TTL, no budget).
func TestQuickGetAfterSet(t *testing.T) {
	s := New(Config{})
	f := func(key string, value []byte) bool {
		s.Set(key, value, 0)
		got, ok := s.Get(key)
		if !ok || len(got) != len(value) {
			return false
		}
		for i := range value {
			if got[i] != value[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the store never exceeds its byte budget.
func TestQuickBudgetInvariant(t *testing.T) {
	const budget = 32 << 10
	s := New(Config{MaxBytes: budget, Shards: 4})
	f := func(key string, value []byte) bool {
		if len(value) > 1024 {
			value = value[:1024]
		}
		s.Set(key, value, 0)
		return s.Stats().Bytes <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGetHit(b *testing.B) {
	s := New(Config{})
	s.Set("bench-key", make([]byte, 128), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get("bench-key")
	}
}

func BenchmarkSet(b *testing.B) {
	s := New(Config{})
	val := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set("bench-key", val, 0)
	}
}

func BenchmarkConcurrentGet(b *testing.B) {
	s := New(Config{})
	for i := 0; i < 1000; i++ {
		s.Set(fmt.Sprintf("k%d", i), make([]byte, 64), 0)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Get(fmt.Sprintf("k%d", i%1000))
			i++
		}
	})
}

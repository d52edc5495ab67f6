// Package memcache is an in-memory key-value store with memcached
// semantics: sharded hash tables, per-shard LRU eviction under a byte
// budget, optional lazy TTL expiry, and the get/set commands Router
// uses.  Router's leaf microservice wraps one Store behind an RPC
// interface, exactly as the paper wraps a memcached server process.
package memcache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Store.
type Config struct {
	// MaxBytes bounds total value+key bytes; 0 means unlimited.  The
	// budget is divided evenly across shards.
	MaxBytes int64
	// Shards is the number of independent lock domains (default 16).
	Shards int
	// Now supplies time (tests inject a fake clock); default time.Now.
	Now func() time.Time
}

// Stats are cumulative operation counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Expired   uint64
	Items     int64
	Bytes     int64
}

// Store is the concurrent KV store.
type Store struct {
	shards []*shard
	now    func() time.Time

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	expired   atomic.Uint64
}

type entry struct {
	key     string
	value   []byte
	expires time.Time // zero = never
	elem    *list.Element
}

type shard struct {
	mu       sync.Mutex
	items    map[string]*entry
	lru      *list.List // front = most recent
	bytes    int64
	maxBytes int64
}

// New creates a Store.
func New(cfg Config) *Store {
	nShards := cfg.Shards
	if nShards <= 0 {
		nShards = 16
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Store{shards: make([]*shard, nShards), now: now}
	perShard := int64(0)
	if cfg.MaxBytes > 0 {
		perShard = cfg.MaxBytes / int64(nShards)
		if perShard < 1 {
			perShard = 1
		}
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			items:    make(map[string]*entry),
			lru:      list.New(),
			maxBytes: perShard,
		}
	}
	return s
}

// fnv1a is the shard-selection hash (key distribution only; Router's
// leaf-selection hash is SpookyHash at the mid-tier).
func fnv1a(key string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

func (s *Store) shardFor(key string) *shard {
	return s.shards[fnv1a(key)%uint64(len(s.shards))]
}

func entrySize(key string, value []byte) int64 {
	return int64(len(key) + len(value) + 64) // 64 ≈ bookkeeping overhead
}

// removeLocked drops e from the shard (lock held).
func (sh *shard) removeLocked(e *entry) {
	delete(sh.items, e.key)
	sh.lru.Remove(e.elem)
	sh.bytes -= entrySize(e.key, e.value)
}

// lookupLocked finds a live entry, expiring it lazily (lock held).  The clock
// is read only for an entry that has a TTL.
func (s *Store) lookupLocked(sh *shard, key string) *entry {
	e, ok := sh.items[key]
	if !ok {
		return nil
	}
	if !e.expires.IsZero() && s.now().After(e.expires) {
		sh.removeLocked(e)
		s.expired.Add(1)
		return nil
	}
	return e
}

// storeLocked writes key=value (lock held), evicting LRU entries as needed to
// stay under the shard byte budget.  A key that is already resident is
// overwritten in place — its entry, its LRU element and, when the new value
// fits without leaving more than half of it idle, its value array are reused —
// which is safe because every reader either visits under this lock (View) or
// copies out under it (Get).  Only a new entry clones the key, so a
// caller may look up and overwrite through a transient view of request bytes.
func (s *Store) storeLocked(sh *shard, key string, value []byte, ttl time.Duration) {
	e, ok := sh.items[key]
	if ok {
		sh.bytes -= entrySize(e.key, e.value)
		sh.lru.MoveToFront(e.elem)
	} else {
		e = &entry{key: strings.Clone(key)}
		e.elem = sh.lru.PushFront(e)
		sh.items[e.key] = e
	}
	// The budget charges len(value): an array may outweigh its charge by at
	// most a factor of two (plus the bookkeeping constant).
	if n := len(value); n > cap(e.value) || cap(e.value) > 2*n+64 {
		e.value = make([]byte, n)
	} else {
		e.value = e.value[:n]
	}
	copy(e.value, value)
	e.expires = time.Time{}
	if ttl > 0 {
		e.expires = s.now().Add(ttl)
	}
	sh.bytes += entrySize(e.key, e.value)

	if sh.maxBytes > 0 {
		for sh.bytes > sh.maxBytes && sh.lru.Len() > 1 {
			victim := sh.lru.Back().Value.(*entry)
			sh.removeLocked(victim)
			s.evictions.Add(1)
		}
	}
}

// Get returns a copy of key's value, updating recency.
func (s *Store) Get(key string) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e := s.lookupLocked(sh, key)
	if e == nil {
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(e.elem)
	val := make([]byte, len(e.value))
	copy(val, e.value)
	sh.mu.Unlock()
	s.hits.Add(1)
	return val, true
}

// View invokes visit with key's live value while holding the shard lock —
// the zero-copy read Router's leaf uses to stream a value straight into a
// reply encoder.  The slice is valid only during visit and must not be
// retained or modified.  Recency and hit/miss accounting match Get.
func (s *Store) View(key string, visit func(value []byte)) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e := s.lookupLocked(sh, key)
	if e == nil {
		sh.mu.Unlock()
		s.misses.Add(1)
		return false
	}
	sh.lru.MoveToFront(e.elem)
	visit(e.value)
	sh.mu.Unlock()
	s.hits.Add(1)
	return true
}

// Set unconditionally stores key=value with optional TTL (0 = no expiry).
func (s *Store) Set(key string, value []byte, ttl time.Duration) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	s.storeLocked(sh, key, value, ttl)
	sh.mu.Unlock()
}

// Stats returns cumulative counters and current occupancy.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
		Expired:   s.expired.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Items += int64(len(sh.items))
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

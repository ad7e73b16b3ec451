package core

import (
	"container/list"
	"sync"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/table"
)

// The measurement cache memoizes per-column detector output keyed by a
// content fingerprint of the column. Real corpora repeat columns
// constantly — dimension tables shared across workbooks, code lists,
// re-submitted spreadsheets — and a predictor serving a stream of
// requests re-measures them from zero each time. Because ColumnMeasurer
// implementations are pure functions of (column content, position, env),
// replaying a previous result is exactly equivalent to recomputing it;
// the difftest harness holds the cached pipeline to byte-identical
// findings against the uncached reference.
//
// The cache is sharded to keep lock hold times off the measurement hot
// path: the fingerprint picks a shard, each shard is an independent
// LRU under its own mutex.

// cacheShards is the number of independent LRU shards (power of two).
const cacheShards = 16

// defaultCacheSize is the default total entry budget across shards.
const defaultCacheSize = 16384

// cacheKey identifies one (detector class, column position, column
// content) memoization slot. The two independent 64-bit FNV-1a hashes
// make accidental collisions (which would silently replay the wrong
// measurements) a ~2^-128 event per pair.
type cacheKey struct {
	cls    Class
	pos    int32
	h1, h2 uint64
}

// fingerprintColumn hashes the column's name and values with length
// framing, so ("ab","c") and ("a","bc") fingerprint differently. The
// hash is internal/colstore's exported FNV-128 — the same fingerprint
// colstore.ColumnView computes and `.ucol` files store per chunk, so a
// stored chunk fingerprint is directly a cache key component.
func fingerprintColumn(c *table.Column) (h1, h2 uint64) {
	h1, h2 = colstore.NewHash()
	h1, h2 = colstore.HashString(h1, h2, c.Name)
	for _, v := range c.Values {
		h1, h2 = colstore.HashString(h1, h2, v)
	}
	return h1, h2
}

// columnKey is fingerprintColumn memoized on the column: a detect call
// hashes each column once, however many detectors look it up, and
// detectTables drops the memo with the column's profile when it
// returns.
func columnKey(c *table.Column) (h1, h2 uint64) {
	if h1, h2, ok := c.Fingerprint(); ok {
		return h1, h2
	}
	h1, h2 = fingerprintColumn(c)
	c.SetFingerprint(h1, h2)
	return h1, h2
}

// fingerprintTable is the key of table-level detector memoization,
// derived from the columns' fingerprints (names and values,
// length-framed) in position order, so a table costs no hashing beyond
// its columns'. The table's own name is deliberately excluded: no
// detector reads it (Measure is a pure function of the columns and the
// env), and the daemon namespaces batch tables with a per-request
// prefix that would otherwise defeat reuse. The pos = -1 sentinel in
// the cache key keeps table entries disjoint from column entries.
func fingerprintTable(t *table.Table) (h1, h2 uint64) {
	h1, h2 = colstore.NewHash()
	for _, c := range t.Columns {
		c1, c2 := columnKey(c)
		h1, h2 = hashWord(h1, h2, c1)
		h1, h2 = hashWord(h1, h2, c2)
	}
	return h1, h2
}

// hashWord folds the eight bytes of w into both accumulators, as
// colstore.HashString folds a value's bytes; a fixed width needs no
// length frame.
func hashWord(h1, h2, w uint64) (uint64, uint64) {
	for i := 0; i < 64; i += 8 {
		b := (w >> i) & 0xff
		h1 = (h1 ^ b) * colstore.FNVPrime64
		h2 = (h2 ^ b) * colstore.FNVPrime64
	}
	return h1, h2
}

// cacheEntry is one memoized measurement list.
type cacheEntry struct {
	key cacheKey
	ms  []Measurement
}

// cacheShard is one LRU shard.
type cacheShard struct {
	mu sync.Mutex
	// guarded by mu
	items map[cacheKey]*list.Element
	// guarded by mu
	ll *list.List // front = most recently used
	// guarded by mu
	capacity int
}

// measureCache is the sharded LRU. Zero entries per shard disables a
// shard (and a nil *measureCache disables the whole cache).
type measureCache struct {
	shards [cacheShards]cacheShard
}

// newMeasureCache builds a cache with the given total entry budget
// (<= 0 returns nil: caching disabled).
//
// alloc-budget: 2 one-time cache construction: header and per-shard LRU state
func newMeasureCache(total int) *measureCache {
	if total <= 0 {
		return nil
	}
	per := total / cacheShards
	if per < 1 {
		per = 1
	}
	mc := &measureCache{}
	for i := range mc.shards {
		mc.shards[i] = cacheShard{
			items:    make(map[cacheKey]*list.Element),
			ll:       list.New(),
			capacity: per,
		}
	}
	return mc
}

func (mc *measureCache) shard(k cacheKey) *cacheShard {
	return &mc.shards[k.h1&(cacheShards-1)]
}

// get returns the memoized measurements for the column, if present.
// The returned slice is shared and must be treated as read-only.
func (mc *measureCache) get(cls Class, pos int, c *table.Column) ([]Measurement, bool) {
	if mc == nil {
		return nil, false
	}
	h1, h2 := columnKey(c)
	k := cacheKey{cls: cls, pos: int32(pos), h1: h1, h2: h2}
	s := mc.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	ent, ok := el.Value.(*cacheEntry)
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return ent.ms, true
}

// getTable returns the memoized measurements of a table-level detector,
// if present. The returned slice is shared and must be treated as
// read-only.
func (mc *measureCache) getTable(cls Class, t *table.Table) ([]Measurement, bool) {
	if mc == nil {
		return nil, false
	}
	h1, h2 := fingerprintTable(t)
	k := cacheKey{cls: cls, pos: -1, h1: h1, h2: h2}
	s := mc.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	ent, ok := el.Value.(*cacheEntry)
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return ent.ms, true
}

// putTable memoizes the measurements of a table-level detector.
func (mc *measureCache) putTable(cls Class, t *table.Table, ms []Measurement) {
	if mc == nil {
		return
	}
	h1, h2 := fingerprintTable(t)
	mc.insert(cacheKey{cls: cls, pos: -1, h1: h1, h2: h2}, ms)
}

// put memoizes the measurements for the column, evicting the least
// recently used entry of the shard when over budget.
func (mc *measureCache) put(cls Class, pos int, c *table.Column, ms []Measurement) {
	if mc == nil {
		return
	}
	h1, h2 := columnKey(c)
	mc.insert(cacheKey{cls: cls, pos: int32(pos), h1: h1, h2: h2}, ms)
}

// insert adds one entry under its shard's lock, evicting the least
// recently used entries of the shard when over budget.
//
// alloc-budget: 1 one entry header per memoized column; residency bounded by the shard capacity
func (mc *measureCache) insert(k cacheKey, ms []Measurement) {
	s := mc.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		// A concurrent worker measured the same column; the results are
		// identical by purity, so keep the resident entry.
		s.ll.MoveToFront(el)
		return
	}
	s.items[k] = s.ll.PushFront(&cacheEntry{key: k, ms: ms})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		if ent, ok := oldest.Value.(*cacheEntry); ok {
			delete(s.items, ent.key)
		}
	}
}

// len reports the resident entry count (tests only).
func (mc *measureCache) len() int {
	if mc == nil {
		return 0
	}
	n := 0
	for i := range mc.shards {
		s := &mc.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

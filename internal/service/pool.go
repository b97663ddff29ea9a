package service

import (
	"sync"
	"sync/atomic"

	"partfeas"
)

// TesterPool is a sharded, concurrency-safe cache of reusable
// partfeas.Testers keyed by the canonical instance encoding. A Tester is
// single-goroutine by contract, so the pool hands each one out
// exclusively: Acquire pops an idle tester for the instance (a cache hit
// — the repeat query then runs on the zero-alloc precomputed-solver
// path) or builds a fresh one (a miss); Release returns it for the next
// request. Concurrent requests for the same instance each get their own
// tester, so correctness never depends on request serialization.
//
// Two bounds keep the pool's memory finite: maxIdle caps testers cached
// per key, and maxKeys caps distinct keys pool-wide — without the key
// bound, a client cycling through distinct instances would grow the
// idle map forever even though every individual key stayed tiny. The
// key bound is tracked globally (an atomic count) and enforced by
// evicting the least-recently-used key of the fullest shard, so it
// holds regardless of how the hash distributes keys over shards; with
// concurrent releases the count can transiently overshoot by the number
// of in-flight insertions.
type TesterPool struct {
	shards  []poolShard
	maxIdle int // testers per key
	maxKeys int // distinct keys pool-wide

	keys      atomic.Int64
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64 // keys evicted by the LRU bound
}

type poolShard struct {
	mu      sync.Mutex
	entries map[string]*poolEntry
	// Intrusive LRU list over entries; head is most recently used.
	head, tail *poolEntry
}

type poolEntry struct {
	key        string
	idle       []*partfeas.Tester
	prev, next *poolEntry
}

func (sh *poolShard) unlink(e *poolEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *poolShard) pushFront(e *poolEntry) {
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// NewTesterPool builds a pool with the given shard count (<= 0 means 16),
// per-instance idle cap (<= 0 means 4) and pool-wide key cap (<= 0 means
// 1024). Testers released beyond the idle cap are dropped for the GC;
// keys beyond the key cap evict a least-recently-used key.
func NewTesterPool(shards, maxIdlePerKey, maxKeys int) *TesterPool {
	if shards <= 0 {
		shards = 16
	}
	if maxIdlePerKey <= 0 {
		maxIdlePerKey = 4
	}
	if maxKeys <= 0 {
		maxKeys = 1024
	}
	p := &TesterPool{
		shards:  make([]poolShard, shards),
		maxIdle: maxIdlePerKey,
		maxKeys: maxKeys,
	}
	for i := range p.shards {
		p.shards[i].entries = map[string]*poolEntry{}
	}
	return p
}

// poolKey names an instance's slot: its canonical encoding and the
// shard that encoding hashes to, computed once per request.
type poolKey struct {
	s     string
	shard int
}

// Acquire returns an exclusive Tester for the instance plus the key to
// Release it under. hit reports whether the tester came from the cache.
// A hit allocates nothing for the key: the lookup reads the encoding in
// a pooled buffer, and the key reuses the cached entry's string. The
// instance must already be validated (the handlers validate at decode);
// construction errors are still surfaced.
func (p *TesterPool) Acquire(in partfeas.Instance) (t *partfeas.Tester, key poolKey, hit bool, err error) {
	kb := getBuf()
	defer kb.release()
	kb.b = appendInstanceKey(kb.b, in)
	b := kb.b
	key.shard = shardOf(b, len(p.shards))
	sh := &p.shards[key.shard]
	sh.mu.Lock()
	if e := sh.entries[string(b)]; e != nil && len(e.idle) > 0 {
		key.s = e.key
		t = e.idle[len(e.idle)-1]
		e.idle[len(e.idle)-1] = nil
		e.idle = e.idle[:len(e.idle)-1]
		sh.unlink(e)
		if len(e.idle) == 0 {
			delete(sh.entries, e.key)
			p.keys.Add(-1)
		} else {
			sh.pushFront(e)
		}
		sh.mu.Unlock()
		p.hits.Add(1)
		return t, key, true, nil
	}
	sh.mu.Unlock()
	p.misses.Add(1)
	t, err = partfeas.NewTester(in.Tasks, in.Platform, in.Scheduler)
	if err != nil {
		return nil, poolKey{}, false, err
	}
	// The string is built once, for the entry Release will insert.
	key.s = string(b)
	return t, key, false, nil
}

// Release returns a tester acquired under key to the pool. Testers whose
// state was mutated (UpdateWCET) must not be released — sessions keep
// their testers privately for exactly that reason.
func (p *TesterPool) Release(key poolKey, t *partfeas.Tester) {
	if t == nil {
		return
	}
	sh := &p.shards[key.shard]
	sh.mu.Lock()
	e := sh.entries[key.s]
	inserted := e == nil
	if inserted {
		e = &poolEntry{key: key.s}
		sh.entries[key.s] = e
	} else {
		sh.unlink(e)
	}
	sh.pushFront(e)
	if len(e.idle) < p.maxIdle {
		e.idle = append(e.idle, t)
	}
	sh.mu.Unlock()
	if inserted && p.keys.Add(1) > int64(p.maxKeys) {
		p.evictOne(sh)
	}
}

// evictOne drops the least-recently-used key of the fullest shard —
// cross-shard LRU is approximated, the pool-wide count is exact. The
// fresh key the caller just inserted is spared when it is its shard's
// only entry (evicting it would make the insertion pointless); the
// bound then holds on the next insertion.
func (p *TesterPool) evictOne(fresh *poolShard) {
	var best *poolShard
	bestN := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n := len(sh.entries)
		sh.mu.Unlock()
		if n > bestN || (n == bestN && n > 0 && best == fresh) {
			best, bestN = sh, n
		}
	}
	if best == nil || bestN == 0 {
		return
	}
	best.mu.Lock()
	if victim := best.tail; victim != nil && !(best == fresh && len(best.entries) == 1) {
		best.unlink(victim)
		delete(best.entries, victim.key)
		best.mu.Unlock()
		p.keys.Add(-1)
		p.evictions.Add(1)
		return
	}
	best.mu.Unlock()
}

// PoolStats is a point-in-time cache snapshot.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // keys dropped by the LRU key bound
	Idle      int    // testers currently cached across all shards
	Keys      int    // distinct keys currently cached across all shards
}

// Stats reads the hit/miss/eviction counters and counts idle testers.
func (p *TesterPool) Stats() PoolStats {
	st := PoolStats{Hits: p.hits.Load(), Misses: p.misses.Load(), Evictions: p.evictions.Load()}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			st.Idle += len(e.idle)
			st.Keys++
		}
		sh.mu.Unlock()
	}
	return st
}

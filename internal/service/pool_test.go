package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"partfeas"
)

// demoInstances builds a few distinct instances that exercise both
// schedulers, named and unnamed machines, and accept/reject outcomes.
func demoInstances() []partfeas.Instance {
	base := partfeas.TaskSet{
		{Name: "video", WCET: 9, Period: 30},
		{Name: "audio", WCET: 1, Period: 4},
		{Name: "net", WCET: 3, Period: 10},
		{Name: "ui", WCET: 2, Period: 12},
		{Name: "sensor", WCET: 1, Period: 20},
	}
	tight := partfeas.TaskSet{
		{Name: "a", WCET: 3, Period: 4},
		{Name: "b", WCET: 3, Period: 4},
		{Name: "c", WCET: 1, Period: 2},
	}
	return []partfeas.Instance{
		{Tasks: base, Platform: partfeas.NewPlatform(1, 1, 4), Scheduler: partfeas.EDF},
		{Tasks: base, Platform: partfeas.NewPlatform(1, 1, 4), Scheduler: partfeas.RMS},
		{Tasks: tight, Platform: partfeas.NewPlatform(1, 1), Scheduler: partfeas.EDF},
		{Tasks: base, Platform: partfeas.Platform{{Name: "big", Speed: 4}, {Name: "small", Speed: 0.5}}, Scheduler: partfeas.EDF},
		{Tasks: tight, Platform: partfeas.NewPlatform(2), Scheduler: partfeas.RMS},
	}
}

// instanceKey is an instance's pool key as a string.
func instanceKey(in partfeas.Instance) string { return string(appendInstanceKey(nil, in)) }

func TestInstanceKeyIdentity(t *testing.T) {
	ins := demoInstances()
	seen := map[string]int{}
	for i, in := range ins {
		k := instanceKey(in)
		if j, dup := seen[k]; dup {
			t.Errorf("instances %d and %d share a key", j, i)
		}
		seen[k] = i
	}
	// Equal content, independently built values → equal key.
	a, b := demoInstances()[0], demoInstances()[0]
	if instanceKey(a) != instanceKey(b) {
		t.Error("identical instances produced different keys")
	}
	// Every field the solver's decisions can depend on must change the key.
	mutations := []func(*partfeas.Instance){
		func(in *partfeas.Instance) { in.Scheduler = partfeas.RMS },
		func(in *partfeas.Instance) { in.Tasks[0].Name = "vídeo" },
		func(in *partfeas.Instance) { in.Tasks[0].WCET++ },
		func(in *partfeas.Instance) { in.Tasks[0].Period++ },
		func(in *partfeas.Instance) { in.Tasks = in.Tasks[:4] },
		func(in *partfeas.Instance) { in.Platform[2].Speed = 4.5 },
		func(in *partfeas.Instance) { in.Platform[0].Name = "m00" },
		func(in *partfeas.Instance) { in.Platform = in.Platform[:2] },
	}
	for i, mutate := range mutations {
		in := demoInstances()[0]
		in.Tasks = in.Tasks.Clone()
		in.Platform = in.Platform.Clone()
		mutate(&in)
		if instanceKey(in) == instanceKey(demoInstances()[0]) {
			t.Errorf("mutation %d did not change the key", i)
		}
	}
}

func TestPoolHitMissAndIdleCap(t *testing.T) {
	p := NewTesterPool(4, 2, 0)
	in := demoInstances()[0]

	t1, key, hit, err := p.Acquire(in)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first acquire reported a cache hit")
	}
	p.Release(key, t1)
	t2, _, hit, err := p.Acquire(in)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("acquire after release missed")
	}
	if t2 != t1 {
		t.Error("pool handed back a different tester than was released")
	}
	// Three releases under a cap of two: the third is dropped.
	extra, key2, _, err := p.Acquire(in)
	if err != nil {
		t.Fatal(err)
	}
	third, _, _, err := p.Acquire(in)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(key, t2)
	p.Release(key2, extra)
	p.Release(key, third)
	st := p.Stats()
	if st.Idle != 2 {
		t.Errorf("idle = %d after capped releases, want 2", st.Idle)
	}
	if st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 1 hit / 3 misses", st)
	}
	p.Release(key, nil) // must be a no-op
	if got := p.Stats().Idle; got != 2 {
		t.Errorf("idle = %d after nil release, want 2", got)
	}
}

func TestPoolRejectsInvalidInstance(t *testing.T) {
	p := NewTesterPool(0, 0, 0)
	in := demoInstances()[0]
	in.Platform = partfeas.NewPlatform(1, -3)
	if _, _, _, err := p.Acquire(in); err == nil {
		t.Error("Acquire accepted a platform with a negative speed")
	}
}

// TestPoolConcurrentBitIdentical hammers one shared pool from many
// goroutines (run under -race by the Makefile's race target) and checks
// every response is byte-identical to a direct, single-threaded library
// call for the same instance and alpha.
func TestPoolConcurrentBitIdentical(t *testing.T) {
	ins := demoInstances()
	alphas := []float64{0.5, 1, 2, 2.98}

	// Ground truth: direct library calls, no pool, no concurrency.
	want := map[string][]byte{}
	for i, in := range ins {
		for _, alpha := range alphas {
			rep, err := partfeas.TestCtx(context.Background(), in, alpha)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := json.Marshal(TestResponseFrom(rep))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%d/%g", i, alpha)] = buf
		}
	}

	pool := NewTesterPool(4, 3, 0)
	const goroutines = 16
	const iters = 60
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(ins)
				alpha := alphas[(g*7+it)%len(alphas)]
				tester, key, _, err := pool.Acquire(ins[i])
				if err != nil {
					errc <- err
					return
				}
				rep, err := tester.TestCtx(ctx, alpha)
				if err != nil {
					errc <- err
					return
				}
				got, err := json.Marshal(TestResponseFrom(rep))
				pool.Release(key, tester)
				if err != nil {
					errc <- err
					return
				}
				if wantBuf := want[fmt.Sprintf("%d/%g", i, alpha)]; string(got) != string(wantBuf) {
					errc <- fmt.Errorf("instance %d α=%g: pooled %s != direct %s", i, alpha, got, wantBuf)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := pool.Stats()
	if st.Hits == 0 {
		t.Error("no cache hits across repeated concurrent queries")
	}
	if st.Hits+st.Misses != goroutines*iters {
		t.Errorf("hits %d + misses %d != %d requests", st.Hits, st.Misses, goroutines*iters)
	}
}

// poolInstance builds the i-th of a family of distinct single-task
// instances (distinct WCET → distinct canonical key).
func poolInstance(i int) partfeas.Instance {
	return partfeas.Instance{
		Tasks:     partfeas.TaskSet{{WCET: int64(i + 1), Period: 1000}},
		Platform:  partfeas.NewPlatform(4),
		Scheduler: partfeas.EDF,
	}
}

// TestPoolKeyEviction: the pool-wide key bound must evict least recently
// used keys instead of growing without bound — the leak this bound
// fixes: one client cycling through distinct instances used to pin every
// key's idle slice forever.
func TestPoolKeyEviction(t *testing.T) {
	p := NewTesterPool(1, 4, 3) // one shard → deterministic LRU across keys
	for i := 0; i < 5; i++ {
		tt, key, hit, err := p.Acquire(poolInstance(i))
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("instance %d cannot be cached yet", i)
		}
		p.Release(key, tt)
	}
	st := p.Stats()
	if st.Keys != 3 {
		t.Fatalf("Keys = %d, want 3", st.Keys)
	}
	if st.Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", st.Evictions)
	}
	// Oldest keys (0, 1) were evicted; newest (2..4) remain cached.
	if _, _, hit, _ := p.Acquire(poolInstance(0)); hit {
		t.Fatal("evicted key 0 still cached")
	}
	if _, _, hit, _ := p.Acquire(poolInstance(4)); !hit {
		t.Fatal("resident key 4 missed")
	}
}

// TestPoolKeyEvictionCrossShard: the key bound is pool-wide, not
// per-shard — even when distinct keys hash to distinct shards, the
// global count must converge to the cap.
func TestPoolKeyEvictionCrossShard(t *testing.T) {
	p := NewTesterPool(16, 4, 2)
	for i := 0; i < 6; i++ {
		tt, key, _, err := p.Acquire(poolInstance(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Release(key, tt)
	}
	st := p.Stats()
	if st.Keys > 2 {
		t.Fatalf("Keys = %d after 6 releases, want <= 2", st.Keys)
	}
	if st.Evictions < 4 {
		t.Fatalf("Evictions = %d, want >= 4", st.Evictions)
	}
}

// TestPoolKeyEvictionLRUOrder: releasing under an existing key must
// refresh its recency, so the bound evicts the stalest key, not the
// first-inserted one.
func TestPoolKeyEvictionLRUOrder(t *testing.T) {
	p := NewTesterPool(1, 4, 2)
	acquire := func(i int) (*partfeas.Tester, poolKey, bool) {
		tt, key, hit, err := p.Acquire(poolInstance(i))
		if err != nil {
			t.Fatal(err)
		}
		return tt, key, hit
	}
	tA1, keyA, _ := acquire(0)
	tA2, _, _ := acquire(0)
	tB, keyB, _ := acquire(1)
	tC, keyC, _ := acquire(2)
	p.Release(keyA, tA1)
	p.Release(keyB, tB)
	p.Release(keyA, tA2) // refresh A: B becomes the LRU key
	p.Release(keyC, tC)  // bound 2 → evict B
	if st := p.Stats(); st.Evictions != 1 || st.Keys != 2 {
		t.Fatalf("Evictions=%d Keys=%d, want 1 and 2", st.Evictions, st.Keys)
	}
	if _, _, hit := acquire(1); hit {
		t.Fatal("stale key B survived the refresh of A")
	}
	if _, _, hit := acquire(0); !hit {
		t.Fatal("refreshed key A was evicted")
	}
	if _, _, hit := acquire(2); !hit {
		t.Fatal("newest key C was evicted")
	}
}

// TestPoolHitAllocatesNothing: a cache hit encodes its key into a pooled
// buffer, looks it up without converting it and hashes it once, so the
// Acquire/Release round trip of a hit allocates nothing (two idle
// testers keep the entry alive across the round trip).
func TestPoolHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	p := NewTesterPool(4, 2, 0)
	in := demoInstances()[0]
	t1, k1, _, err := p.Acquire(in)
	if err != nil {
		t.Fatal(err)
	}
	t2, k2, _, err := p.Acquire(in)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(k1, t1)
	p.Release(k2, t2)
	allocs := testing.AllocsPerRun(100, func() {
		tt, key, hit, err := p.Acquire(in)
		if err != nil || !hit {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
		p.Release(key, tt)
	})
	if allocs != 0 {
		t.Fatalf("a pool hit allocated %v times, want 0", allocs)
	}
}

package server

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2, 0)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be present")
	}
	c.Put("c", 3, 1) // evicts b (a was refreshed by the Get)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be present", k)
		}
	}
	if n, _ := c.Len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
	// Replacing a key must not grow the cache.
	c.Put("a", 99, 1)
	if v, _ := c.Get("a"); v != 99 {
		t.Errorf("a = %v, want 99", v)
	}
	if n, _ := c.Len(); n != 2 {
		t.Errorf("len after replace = %d, want 2", n)
	}
}

func TestLRUTTLExpiry(t *testing.T) {
	c := newLRUCache(8, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.Put("a", 1, 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry should be present")
	}
	// Just inside the TTL: still served.
	now = now.Add(time.Minute)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry at exactly TTL should be present")
	}
	// Past the TTL: expired even though the cache is under capacity and
	// the entry was just refreshed by Get (age counts from insertion).
	now = now.Add(time.Second)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry past TTL should have expired")
	}
	if n, _ := c.Len(); n != 0 {
		t.Fatalf("expired entry not removed: len = %d", n)
	}

	// A Put restarts the clock for its key.
	c.Put("b", 2, 1)
	now = now.Add(30 * time.Second)
	c.Put("b", 3, 1)
	now = now.Add(45 * time.Second) // 45s after replace, 75s after insert
	if v, ok := c.Get("b"); !ok || v != 3 {
		t.Fatalf("replaced entry should be fresh: %v %v", v, ok)
	}
}

func TestLRUZeroTTLNeverExpires(t *testing.T) {
	c := newLRUCache(2, 0)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put("a", 1, 1)
	now = now.Add(1000 * time.Hour)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("TTL 0 must mean no expiry")
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := newLRUCache(8, 0)
	for _, k := range []string{"keep-1", "drop-1", "keep-2", "drop-2", "drop-3"} {
		c.Put(k, k, 1)
	}
	n := c.Invalidate(func(key string, val any) bool {
		if val.(string) != key {
			t.Errorf("predicate got val %v for key %q", val, key)
		}
		return len(key) >= 4 && key[:4] == "drop"
	})
	if n != 3 {
		t.Fatalf("invalidated %d entries, want 3", n)
	}
	for _, k := range []string{"drop-1", "drop-2", "drop-3"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("%s survived invalidation", k)
		}
	}
	for _, k := range []string{"keep-1", "keep-2"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s was dropped by a non-matching predicate", k)
		}
	}
	if n, _ := c.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	// Invalidating nothing is a no-op; the cache keeps working after.
	if n := c.Invalidate(func(string, any) bool { return false }); n != 0 {
		t.Fatalf("no-op invalidation dropped %d", n)
	}
	c.Put("new", 1, 1)
	if _, ok := c.Get("new"); !ok {
		t.Fatal("cache broken after invalidation")
	}
}

// TestLRUByteBound: eviction follows the summed entry sizes, not the
// entry count, and a replace or a removal gives its bytes back.
func TestLRUByteBound(t *testing.T) {
	c := newLRUCache(100, 0)
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	if n, b := c.Len(); n != 2 || b != 80 {
		t.Fatalf("len, bytes = %d, %d, want 2, 80", n, b)
	}
	c.Get("a")        // b is now the least recently used
	c.Put("c", 3, 30) // 110 > 100: evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if n, b := c.Len(); n != 2 || b != 70 {
		t.Fatalf("after eviction: len, bytes = %d, %d, want 2, 70", n, b)
	}
	c.Put("a", 4, 10) // replacing a key replaces its size
	if n, b := c.Len(); n != 2 || b != 40 {
		t.Fatalf("after replace: len, bytes = %d, %d, want 2, 40", n, b)
	}
	// Many small entries fit where one large one did: the bound is bytes.
	for i := 0; i < 6; i++ {
		c.Put(string(rune('k'+i)), i, 10)
	}
	if n, b := c.Len(); n != 8 || b != 100 {
		t.Fatalf("small entries: len, bytes = %d, %d, want 8, 100", n, b)
	}
	// An entry larger than the whole budget evicts everything else and
	// stays, alone: the cache degrades to one entry rather than none.
	c.Put("huge", 5, 500)
	if n, b := c.Len(); n != 1 || b != 500 {
		t.Fatalf("oversized entry: len, bytes = %d, %d, want 1, 500", n, b)
	}
	if v, ok := c.Get("huge"); !ok || v != 5 {
		t.Fatalf("oversized entry not served: %v %v", v, ok)
	}
	if n := c.Invalidate(func(string, any) bool { return true }); n != 1 {
		t.Fatalf("invalidated %d, want 1", n)
	}
	if n, b := c.Len(); n != 0 || b != 0 {
		t.Fatalf("after invalidation: len, bytes = %d, %d, want 0, 0", n, b)
	}
}

func TestFlightGroupDedup(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int32
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	results := make([]any, n)
	sharedCount := atomic.Int32{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do(context.Background(), "k", func() (any, error) {
				calls.Add(1)
				<-release
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Let followers pile up behind the leader, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Errorf("%d callers shared, want %d", got, n-1)
	}
	for i, v := range results {
		if v != "value" {
			t.Errorf("result %d = %v", i, v)
		}
	}
}

func TestFlightGroupWaiterTimeout(t *testing.T) {
	g := newFlightGroup()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go g.Do(context.Background(), "k", func() (any, error) {
		close(leaderIn)
		<-release
		return nil, nil
	})
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err, shared := g.Do(ctx, "k", func() (any, error) {
		t.Error("follower must not run fn")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if !shared {
		t.Error("follower should report shared")
	}
	close(release)
}

func TestWorkerPoolBlocksAtCapacity(t *testing.T) {
	p := newWorkerPool(1)
	if err := p.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("second acquire: err = %v, want DeadlineExceeded", err)
	}
	p.release()
	if err := p.acquire(context.Background()); err != nil {
		t.Errorf("acquire after release: %v", err)
	}
	if p.inUse() != 1 || p.capacity() != 1 {
		t.Errorf("inUse/capacity = %d/%d, want 1/1", p.inUse(), p.capacity())
	}
}

func TestFlightGroupLeaderPanicDoesNotPoisonKey(t *testing.T) {
	g := newFlightGroup()
	func() {
		defer func() { recover() }() // the leader's panic propagates; swallow it here
		g.Do(context.Background(), "k", func() (any, error) { panic("boom") })
	}()
	// The key must be free again: a new call runs fn rather than hanging.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err, _ := g.Do(context.Background(), "k", func() (any, error) { return 42, nil })
		if err != nil || v != 42 {
			t.Errorf("after panic: v=%v err=%v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("key still poisoned after leader panic")
	}
}

func TestSearchKeyNoSeparatorCollision(t *testing.T) {
	a := searchKey([]string{"a\x1fb"}, 5)
	b := searchKey([]string{"a", "b"}, 5)
	if a == b {
		t.Fatalf("distinct keyword lists collide: %q", a)
	}
	if searchKey([]string{"ab", "c"}, 5) == searchKey([]string{"a", "bc"}, 5) {
		t.Fatal("length-prefix boundary collision")
	}
}

// TestCacheSizeEstimateTracksHeap holds the cache's byte accounting to
// what its entries really keep live: over 200 distinct DBLP searches the
// summed size estimates must be within 2× of the heap growth measured
// after GC.
func TestCacheSizeEstimateTracksHeap(t *testing.T) {
	s := testServer(t, Config{CacheBytes: 1 << 30, SlowlogSize: -1})
	words := []string{"keyword", "search", "graph", "database", "query",
		"semantic", "index", "ranking", "distributed", "data"}
	search := func(kws ...string) {
		t.Helper()
		if _, _, _, err := s.doSearch(context.Background(), kws, s.clampK(0)); err != nil {
			t.Fatalf("search %v: %v", kws, err)
		}
	}
	// Warm up lazily built state (the lookup's DF memo, pools) first.
	for _, w := range words {
		search(w)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	n0, b0 := s.searchCache.Len()
	h0 := heap()
	for _, w := range words {
		for y := 1980; y < 2000; y++ {
			search(w, strconv.Itoa(y))
		}
	}
	h1 := heap()
	n1, b1 := s.searchCache.Len()
	if n1-n0 != 200 {
		t.Fatalf("cached %d new searches, want 200", n1-n0)
	}
	est, grew := float64(b1-b0), float64(h1)-float64(h0)
	t.Logf("estimated %.0f B, heap grew %.0f B (%.0f B per search)", est, grew, grew/200)
	if grew <= 0 || est < grew/2 || est > 2*grew {
		t.Fatalf("estimate %.0f B is not within 2× of the measured %.0f B", est, grew)
	}
}

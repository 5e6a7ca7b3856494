package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"act/internal/scenario"
)

func TestCacheHitAndEviction(t *testing.T) {
	c := NewCache[int](2)
	if _, hit := c.Get("a"); hit {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	if v, hit := c.Get("a"); v != 1 || !hit {
		t.Fatalf("Get(a) = (%d, %v), want (1, hit)", v, hit)
	}
	c.Put("bb", 2)
	c.Get("a")      // refresh a: now bb is the LRU entry
	c.Put("ccc", 3) // evicts bb, keeps the recently-used a
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, hit := c.Get("a"); !hit {
		t.Error("a should have survived (recently used)")
	}
	if _, hit := c.Get("bb"); hit {
		t.Error("bb should have been evicted")
	}
	c.Put("a", 4) // overwrite in place, no eviction
	if v, _ := c.Get("a"); v != 4 || c.Len() != 2 {
		t.Errorf("after overwrite Get(a) = %d len = %d, want 4 and 2", v, c.Len())
	}
}

func TestCacheDisabledResidency(t *testing.T) {
	c := NewCache[int](-1)
	for i := 0; i < 3; i++ {
		c.Put("k", 7)
		if _, hit := c.Get("k"); hit {
			t.Error("disabled cache reported a residency hit")
		}
	}
	if c.Len() != 0 {
		t.Errorf("len = %d, want 0", c.Len())
	}
}

// TestCacheErrorNotCached: a scenario whose evaluation fails leaves no
// cache entry, so the next request for it evaluates afresh.
func TestCacheErrorNotCached(t *testing.T) {
	s := New(Config{Logger: discardLogger()})
	bad := testSpec(50)
	bad.Logic[0].AreaMM2 = -1 // valid JSON, fails at evaluation
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := s.evalBatchColumnar(ctx, []*scenario.Spec{bad}, false); err == nil {
			t.Fatal("invalid scenario evaluated")
		}
	}
	if s.cache.Len() != 0 {
		t.Fatal("error was cached")
	}
	if got := s.mCacheMisses.Value(); got != 2 {
		t.Fatalf("misses = %d, want 2 (each failed request evaluated afresh)", got)
	}
}

// TestCacheStress hammers a small cache from many goroutines so the race
// detector can chew on the LRU bookkeeping.
func TestCacheStress(t *testing.T) {
	c := NewCache[int](4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g+i)%13)
				want := len(key) + (g+i)%13
				v, hit := c.Get(key)
				if !hit {
					c.Put(key, want)
					continue
				}
				if v != want {
					t.Errorf("key %s = %d, want %d", key, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Errorf("len = %d, exceeds capacity 4", c.Len())
	}
}

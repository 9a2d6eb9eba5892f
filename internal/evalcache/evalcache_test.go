package evalcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	c := NewLRU(1024)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", 42, 10)
	v, ok := c.Get("a")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get(a) = %v, %v; want 42, true", v, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 10 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v; want 1 entry, 10 bytes, 1 hit, 1 miss", st)
	}
}

func TestPutReplacesAndAdjustsBytes(t *testing.T) {
	c := NewLRU(1024)
	c.Put("k", "old", 100)
	c.Put("k", "new", 30)
	v, ok := c.Get("k")
	if !ok || v.(string) != "new" {
		t.Fatalf("Get(k) = %v, %v; want new, true", v, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 30 {
		t.Errorf("stats after replace = %+v; want 1 entry, 30 bytes", st)
	}
}

func TestEvictionIsLRU(t *testing.T) {
	c := NewLRU(100)
	c.Put("a", "a", 40)
	c.Put("b", "b", 40)
	// Touch a so b becomes the least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", "c", 40) // exceeds 100: b must go
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 100 {
		t.Errorf("bytes = %d exceeds the 100-byte bound", st.Bytes)
	}
}

func TestOversizedEntryNotStored(t *testing.T) {
	c := NewLRU(50)
	c.Put("big", "big", 1000)
	if _, ok := c.Get("big"); ok {
		t.Error("entry costing more than the bound must not be stored")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats = %+v; want the oversized put counted as one eviction", st)
	}
	// An oversized replacement also removes the existing entry.
	c.Put("k", "v", 10)
	c.Put("k", "huge", 1000)
	if _, ok := c.Get("k"); ok {
		t.Error("oversized replacement should drop the stale entry")
	}
}

func TestNegativeCostClamped(t *testing.T) {
	c := NewLRU(100)
	c.Put("k", "v", -5)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("negative-cost entry should be stored at cost 0")
	}
	if st := c.Stats(); st.Bytes != 0 {
		t.Errorf("bytes = %d, want 0", st.Bytes)
	}
}

func TestDefaultBound(t *testing.T) {
	c := NewLRU(0)
	if c.maxBytes != DefaultMaxBytes {
		t.Errorf("maxBytes = %d, want DefaultMaxBytes", c.maxBytes)
	}
}

// TestConcurrentAccess hammers one cache from many goroutines; run with
// -race (CI does) to prove the locking.
func TestConcurrentAccess(t *testing.T) {
	c := NewLRU(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%64)
				if v, ok := c.Get(key); ok {
					if _, isInt := v.(int); !isInt {
						t.Errorf("unexpected value type %T", v)
						return
					}
				}
				c.Put(key, i, int64(i%128))
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 1<<16 {
		t.Errorf("bytes = %d exceeds bound", st.Bytes)
	}
}

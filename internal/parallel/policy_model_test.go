package parallel

import (
	"fmt"
	"math/rand"
	"testing"
)

// allPolicies enumerates the pluggable policies for table-driven tests.
var allPolicies = []Policy{PolicyLRU, Policy2Q}

// TestPolicyModelProperties drives every policy with a long seeded random
// op sequence against a reference model, checking the invariants that
// hold regardless of replacement choice:
//
//   - bounded size: live entries never exceed capacity;
//   - hit correctness: a hit returns the exact value of the most recent
//     put for that key (no aliasing, no lost updates);
//   - no resurrection: a key that was never put never hits.
func TestPolicyModelProperties(t *testing.T) {
	const (
		capacity = 32
		keyspace = 96
		ops      = 20000
	)
	for _, pol := range allPolicies {
		t.Run(string(pol), func(t *testing.T) {
			p := newPolicy[int, int](pol, capacity)
			rng := rand.New(rand.NewSource(42))
			latest := map[int]int{} // reference: last value put per key
			for i := 0; i < ops; i++ {
				k := rng.Intn(keyspace)
				if rng.Intn(2) == 0 {
					v := rng.Int()
					p.put(k, v)
					latest[k] = v
				} else if v, ok := p.get(k); ok {
					want, ever := latest[k]
					if !ever {
						t.Fatalf("op %d: key %d hit but was never put", i, k)
					}
					if v != want {
						t.Fatalf("op %d: key %d = %d, want %d", i, k, v, want)
					}
				}
				if n := p.len(); n > capacity {
					t.Fatalf("op %d: %d live entries exceed capacity %d", i, n, capacity)
				}
			}
			p.purge()
			if p.len() != 0 {
				t.Fatalf("purge left %d entries", p.len())
			}
			if _, ok := p.get(1); ok {
				t.Fatal("purged entry survived")
			}
		})
	}
}

// refLRU is an executable specification of LRU built on a plain slice:
// most-recently-used first, evict the back.
type refLRU struct {
	cap  int
	keys []int
	vals map[int]int
}

func (r *refLRU) touch(k int) {
	for i, key := range r.keys {
		if key == k {
			copy(r.keys[1:i+1], r.keys[:i])
			r.keys[0] = k
			return
		}
	}
}

func (r *refLRU) get(k int) (int, bool) {
	v, ok := r.vals[k]
	if !ok {
		return 0, false
	}
	r.touch(k)
	return v, true
}

func (r *refLRU) put(k, v int) (evicted int) {
	if _, ok := r.vals[k]; ok {
		r.vals[k] = v
		r.touch(k)
		return 0
	}
	if len(r.keys) >= r.cap {
		victim := r.keys[len(r.keys)-1]
		r.keys = r.keys[:len(r.keys)-1]
		delete(r.vals, victim)
		evicted = 1
	}
	r.keys = append([]int{k}, r.keys...)
	r.vals[k] = v
	return evicted
}

// TestLRUMatchesReferenceModel checks the LRU policy op-for-op against
// the executable specification: identical hits, misses, values and
// eviction counts over a long random sequence — full recency-order
// equivalence, not just invariants.
func TestLRUMatchesReferenceModel(t *testing.T) {
	const capacity, keyspace, ops = 16, 48, 20000
	p := newLRUPolicy[int, int](capacity)
	ref := &refLRU{cap: capacity, vals: map[int]int{}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		k := rng.Intn(keyspace)
		if rng.Intn(2) == 0 {
			v := rng.Int()
			if got, want := p.put(k, v), ref.put(k, v); got != want {
				t.Fatalf("op %d: put(%d) evicted %d, reference %d", i, k, got, want)
			}
		} else {
			gv, gok := p.get(k)
			wv, wok := ref.get(k)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: get(%d) = %d,%v, reference %d,%v", i, k, gv, gok, wv, wok)
			}
		}
		if p.len() != len(ref.vals) {
			t.Fatalf("op %d: len %d, reference %d", i, p.len(), len(ref.vals))
		}
	}
}

// TestTwoQPromotionLifecycle walks one key through 2Q's three states:
// admitted into A1in, aged out into the A1out ghost queue (a miss — the
// value is gone), then promoted into Am on re-admission, where it
// survives a scan flood that would cycle a plain LRU.
func TestTwoQPromotionLifecycle(t *testing.T) {
	p := newTwoQPolicy[string, int](8) // kin=2, kout=4

	p.put("hot", 1)
	if e := p.m["hot"]; e == nil || !e.inA1 {
		t.Fatal("fresh key not admitted into A1in")
	}

	// Fill past capacity: reclaim drains A1in (over its target) oldest
	// first, so "hot" ages out and leaves a ghost.
	for i := 0; i < 8; i++ {
		p.put(fmt.Sprintf("fill-%d", i), i)
	}
	if _, ok := p.get("hot"); ok {
		t.Fatal("key aged out of A1in still hits (ghosts must not serve values)")
	}
	if _, ghosted := p.ghosts["hot"]; !ghosted {
		t.Fatal("key aged out of A1in left no A1out ghost")
	}

	// Re-put while ghosted: promoted straight into the protected Am.
	p.put("hot", 2)
	if e := p.m["hot"]; e == nil || e.inA1 {
		t.Fatal("ghosted key re-put was not promoted into Am")
	}

	// A one-shot scan several times the capacity churns A1in and the
	// ghost queue but never displaces the Am resident.
	for i := 0; i < 64; i++ {
		p.put(fmt.Sprintf("scan-%d", i), i)
		if p.len() > 8 {
			t.Fatalf("live entries %d exceed capacity", p.len())
		}
	}
	if v, ok := p.get("hot"); !ok || v != 2 {
		t.Fatalf("Am entry evicted by scan flood: %d, %v", v, ok)
	}
}

// TestCachePolicyShellIntegration runs the full sharded shell (not bare
// policies) under every policy: capacity bound across shards, hit
// correctness, purge, and eviction counters consistent with Len.
func TestCachePolicyShellIntegration(t *testing.T) {
	const capacity = 64
	for _, pol := range allPolicies {
		t.Run(string(pol), func(t *testing.T) {
			c := NewCache[string, int](pol, capacity, 8, StringHash)
			for i := 0; i < 10*capacity; i++ {
				k := fmt.Sprintf("key-%d", i%(2*capacity))
				c.Put(k, i)
				if v, ok := c.Get(k); !ok || v != i {
					t.Fatalf("just-put key %q = %d, %v", k, v, ok)
				}
			}
			if n := c.Len(); n > capacity {
				t.Fatalf("cache grew to %d entries, capacity %d", n, capacity)
			}
			st := c.Stats()
			if st.Evictions == 0 {
				t.Fatal("no evictions recorded despite 2x-capacity keyspace")
			}
			c.Purge()
			if c.Len() != 0 {
				t.Fatalf("Len after purge = %d", c.Len())
			}
		})
	}
}

// TestCachePolicyHitPathZeroAlloc pins the shell's promise: a warm Get is
// allocation-free under every policy (LRU relinks, 2Q relinks or holds).
func TestCachePolicyHitPathZeroAlloc(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(string(pol), func(t *testing.T) {
			c := NewCache[string, int](pol, 64, 4, StringHash)
			c.Put("warm", 7)
			var v int
			if avg := testing.AllocsPerRun(200, func() {
				got, ok := c.Get("warm")
				if !ok {
					t.Fatal("warm key missed")
				}
				v = got
			}); avg > 0 {
				t.Fatalf("%s hit allocates %.1f allocs/run, want 0", pol, avg)
			}
			if v != 7 {
				t.Fatalf("hit value = %d", v)
			}
		})
	}
}

// FuzzCachePolicies feeds arbitrary op tapes to both policies at
// once, holding every policy to the shared model: bounded live size, and
// hits that return exactly the last value put for the key.
func FuzzCachePolicies(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x11, 0x00})
	f.Add([]byte("put-get-put-get-scan-scan-scan"))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const capacity = 8
		pols := make([]cachePolicy[byte, int], 0, len(allPolicies))
		for _, pol := range allPolicies {
			pols = append(pols, newPolicy[byte, int](pol, capacity))
		}
		latest := map[byte]int{}
		for i := 0; i+1 < len(tape); i += 2 {
			op, key := tape[i], tape[i+1]%32
			for pi, p := range pols {
				if op&1 == 0 {
					if pi == 0 {
						latest[key] = i
					}
					p.put(key, i)
				} else if v, ok := p.get(key); ok {
					want, ever := latest[key]
					if !ever || v != want {
						t.Fatalf("%s: op %d key %d = %d, want %d (ever=%v)",
							allPolicies[pi], i, key, v, want, ever)
					}
				}
				if n := p.len(); n > capacity {
					t.Fatalf("%s: op %d: %d live entries exceed capacity", allPolicies[pi], i, n)
				}
			}
		}
	})
}

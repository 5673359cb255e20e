package parallel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The traffic mixes that picked each cache's default policy (DESIGN.md
// §12). Every mix is mixWorkers pregenerated key sequences from seeds
// 1..mixWorkers. The benchmarks replay them concurrently for ns/op;
// TestTwoQBeatsLRUOnScanMixes replays the same sequences on one
// goroutine, where the hit counts are exact.
const mixWorkers, mixPerWorker = 4, 4096

// mixSeqs pregenerates each worker's key sequence.
func mixSeqs(key func(rng *rand.Rand) string) [][]string {
	seqs := make([][]string, mixWorkers)
	for w := range seqs {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		seqs[w] = make([]string, mixPerWorker)
		for i := range seqs[w] {
			seqs[w][i] = key(rng)
		}
	}
	return seqs
}

// access is one lookup of a mix: a miss fills the key.
func access(c *Cache[string, int], k string) {
	if _, ok := c.Get(k); !ok {
		c.Put(k, 0)
	}
}

// hitHeavy is the steady-state regime every chiron cache spends most of
// its life in: a working set that fits (512 keys in a 4096-entry cache).
const hitHeavyKeys, hitHeavyCap = 512, 4096

func hitHeavyKey(rng *rand.Rand) string {
	return fmt.Sprintf("fn-%03d", rng.Intn(hitHeavyKeys))
}

// scanFlood is the adversarial regime 2Q exists for: a hot set that fits
// (256 keys, 512 capacity) sharing the cache with an equal stream of
// one-shot scan keys — a re-plan sweeping candidate groups it will never
// price again, a junk-name flood against serve's negative cache. Between
// two touches of a hot key, enough scan keys pass through to cycle an LRU
// shard; 2Q parks them in the probation queue. Within a round scan keys
// never repeat, so the hit-rate ceiling is about 0.5, and the gap to it
// is hot-set evictions.
const scanFloodHot, scanFloodCap = 256, 512

// scanFloodKeys returns a fresh generator, so every replay numbers its
// scan keys from the same start.
func scanFloodKeys() func(rng *rand.Rand) string {
	scan := 0
	return func(rng *rand.Rand) string {
		if rng.Intn(2) == 0 {
			scan++
			return fmt.Sprintf("scan-%d-%d", rng.Int63(), scan)
		}
		return fmt.Sprintf("hot-%03d", rng.Intn(scanFloodHot))
	}
}

// serveMix replays serve's negative-lookup traffic against a cache sized
// like the default negative cache (1024): a handful of hot typo'd names
// retried continuously (clients with a stale workflow name) drowned in a
// long Zipf tail of junk names, most of which still repeat occasionally.
const serveMixCap, serveMixTypos, serveMixTail = 1024, 16, 65536

func serveMixKey(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return fmt.Sprintf("typo-%02d", rng.Intn(serveMixTypos))
	}
	zipf := rand.NewZipf(rng, 1.2, 1, serveMixTail-1)
	return fmt.Sprintf("junk-%d", zipf.Uint64())
}

// TestTwoQBeatsLRUOnScanMixes is why serve's negative cache defaults to
// 2q: on both scan-heavy mixes, 2Q keeps more of the reused keys resident
// than LRU. One goroutine replays the four sequences round-robin, 20
// rounds (327 680 lookups), on 16 shards like the benchmarks, so the
// counts are exact:
//
//	mix         lru              2q
//	scan flood  121 175 (0.370)  164 796 (0.503)
//	serve mix   280 023 (0.855)  287 569 (0.878)
func TestTwoQBeatsLRUOnScanMixes(t *testing.T) {
	const rounds = 20
	for _, mix := range []struct {
		name     string
		capacity int
		seqs     [][]string
	}{
		{"scan flood", scanFloodCap, mixSeqs(scanFloodKeys())},
		{"serve mix", serveMixCap, mixSeqs(serveMixKey)},
	} {
		hits := map[Policy]uint64{}
		for _, pol := range []Policy{PolicyLRU, Policy2Q} {
			c := NewCache[string, int](pol, mix.capacity, 16, StringHash)
			for r := 0; r < rounds; r++ {
				for i := 0; i < mixPerWorker; i++ {
					for _, seq := range mix.seqs {
						access(c, seq[i])
					}
				}
			}
			st := c.Stats()
			hits[pol] = st.Hits
			t.Logf("%s %s: %d hits of %d (%.3f)", mix.name, pol, st.Hits,
				st.Hits+st.Misses, float64(st.Hits)/float64(st.Hits+st.Misses))
		}
		if hits[Policy2Q] <= hits[PolicyLRU] {
			t.Errorf("%s: 2q hits %d, lru %d; want 2q > lru", mix.name, hits[Policy2Q], hits[PolicyLRU])
		}
	}
}

// benchCacheMix times one round of a mix per op: the four workers walk
// their sequences concurrently. The sequences are fixed across
// iterations, so every policy sees the identical access stream and the
// hit_rate column is comparable between sub-benchmarks.
func benchCacheMix(b *testing.B, pol Policy, capacity int, key func(rng *rand.Rand) string) {
	seqs := mixSeqs(key)
	c := NewCache[string, int](pol, capacity, 16, StringHash)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, seq := range seqs {
			wg.Add(1)
			go func(seq []string) {
				defer wg.Done()
				for _, k := range seq {
					access(c, k)
				}
			}(seq)
		}
		wg.Wait()
	}
	b.StopTimer()
	st := c.Stats()
	if lookups := st.Hits + st.Misses; lookups > 0 {
		b.ReportMetric(float64(st.Hits)/float64(lookups), "hit_rate")
	}
}

// BenchmarkCacheHitHeavy: every policy hits ≈1.0 here, so ns/op is the
// column that differs — the price of each policy's promotion bookkeeping
// (LRU relinks a ring node, 2Q mostly holds still).
func BenchmarkCacheHitHeavy(b *testing.B) {
	for _, pol := range allPolicies {
		b.Run(string(pol), func(b *testing.B) {
			benchCacheMix(b, pol, hitHeavyCap, hitHeavyKey)
		})
	}
}

func BenchmarkCacheScanFlood(b *testing.B) {
	for _, pol := range allPolicies {
		b.Run(string(pol), func(b *testing.B) {
			benchCacheMix(b, pol, scanFloodCap, scanFloodKeys())
		})
	}
}

func BenchmarkCacheServeMix(b *testing.B) {
	for _, pol := range allPolicies {
		b.Run(string(pol), func(b *testing.B) {
			benchCacheMix(b, pol, serveMixCap, serveMixKey)
		})
	}
}

package parallel

// lruPolicy is the classic least-recently-used policy: a map into an
// intrusive doubly-linked list ordered most- to least-recently used.
// Hits relink in place (no allocation); overflow evicts the list tail.
// It is not thread-safe: the owning shard's mutex serializes every call.
type lruPolicy[K comparable, V any] struct {
	cap int
	m   map[K]*lruEntry[K, V]
	// head.next is the MRU entry; head.prev the LRU (ring with sentinel).
	head lruEntry[K, V]
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

func newLRUPolicy[K comparable, V any](capacity int) *lruPolicy[K, V] {
	p := &lruPolicy[K, V]{cap: capacity}
	p.reset()
	return p
}

func (p *lruPolicy[K, V]) reset() {
	p.m = make(map[K]*lruEntry[K, V], p.cap)
	p.head.prev = &p.head
	p.head.next = &p.head
}

func (p *lruPolicy[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (p *lruPolicy[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = &p.head
	e.next = p.head.next
	e.next.prev = e
	p.head.next = e
}

func (p *lruPolicy[K, V]) get(key K) (V, bool) {
	e, ok := p.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	p.unlink(e)
	p.pushFront(e)
	return e.val, true
}

func (p *lruPolicy[K, V]) put(key K, v V) (evicted int) {
	if e, ok := p.m[key]; ok {
		e.val = v
		p.unlink(e)
		p.pushFront(e)
		return 0
	}
	if len(p.m) >= p.cap {
		lru := p.head.prev
		p.unlink(lru)
		delete(p.m, lru.key)
		evicted = 1
	}
	e := &lruEntry[K, V]{key: key, val: v}
	p.m[key] = e
	p.pushFront(e)
	return evicted
}

func (p *lruPolicy[K, V]) len() int { return len(p.m) }

func (p *lruPolicy[K, V]) purge() { p.reset() }

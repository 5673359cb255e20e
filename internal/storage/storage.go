// Package storage provides the intermediate-data stores serverless
// workflows use to pass state between stages.
//
// Two families live here:
//
//   - SimStore: a virtual-time object store whose Put/Get return the
//     latency the operation would cost over a given netsim.Profile. The
//     engine charges these on the critical path (Figure 4's experiment is
//     exactly a sweep of SimStore latencies).
//   - MemStore and the TCP server in tcp.go: real stores for the live
//     executor and the examples, exercising actual bytes.
package storage

import (
	"fmt"
	"sync"
	"time"

	"chiron/internal/netsim"
)

// SimStore is a virtual-time object store. It tracks object sizes so a
// consumer's Get is priced by what the producer actually stored. It is safe
// for concurrent use.
type SimStore struct {
	prof netsim.Profile

	mu      sync.Mutex
	objects map[string]int64
	puts    int
	gets    int
}

// NewSim returns an empty store over the given medium.
func NewSim(p netsim.Profile) *SimStore {
	return &SimStore{prof: p, objects: make(map[string]int64)}
}

// Profile returns the medium this store is priced on.
func (s *SimStore) Profile() netsim.Profile { return s.prof }

// Put records an object of n bytes and returns the virtual cost of writing
// it.
func (s *SimStore) Put(key string, n int64) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative object size %d", n))
	}
	s.mu.Lock()
	s.objects[key] = n
	s.puts++
	s.mu.Unlock()
	return s.prof.Transfer(n)
}

// Get returns the stored size and the virtual cost of reading it. Reading
// a missing key returns an error (workflow wiring bug).
func (s *SimStore) Get(key string) (int64, time.Duration, error) {
	s.mu.Lock()
	n, ok := s.objects[key]
	if ok {
		s.gets++
	}
	s.mu.Unlock()
	if !ok {
		return 0, 0, fmt.Errorf("storage: object %q not found", key)
	}
	return n, s.prof.Transfer(n), nil
}

// RoundTrip prices a produce/consume handoff of n bytes (one Put + one
// Get) without mutating the store; the engine uses it for ephemeral
// intermediates.
func (s *SimStore) RoundTrip(n int64) time.Duration {
	return s.prof.Transfer(n) * 2
}

// Stats reports operation counts (for tests and resource accounting).
func (s *SimStore) Stats() (puts, gets int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, s.gets
}

// MemStore is a real in-memory KV store used by the live executor: actual
// byte slices, actual copies, safe for concurrent use. A nil *MemStore
// reads as an empty store: Get, Delete and Len work on it, Put panics.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty MemStore.
func NewMem() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Put stores a copy of val under key.
func (s *MemStore) Put(key string, val []byte) {
	cp := make([]byte, len(val))
	copy(cp, val)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
}

// Get returns a copy of the value, or an error if absent.
func (s *MemStore) Get(key string) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("storage: object %q not found", key)
	}
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: object %q not found", key)
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, nil
}

// Delete removes a key (idempotent).
func (s *MemStore) Delete(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// Len returns the number of stored objects.
func (s *MemStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

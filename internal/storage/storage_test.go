package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"chiron/internal/model"
	"chiron/internal/netsim"
)

func TestSimStorePutGet(t *testing.T) {
	s := NewSim(netsim.LocalMinIO(model.Default()))
	putCost := s.Put("stage1/out", 1<<20)
	if putCost <= 0 {
		t.Fatal("Put returned zero cost")
	}
	n, getCost, err := s.Get("stage1/out")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1<<20 {
		t.Fatalf("size %d, want 1MiB", n)
	}
	if getCost != putCost {
		t.Fatalf("get cost %v != put cost %v for same size", getCost, putCost)
	}
	if _, _, err := s.Get("missing"); err == nil {
		t.Fatal("missing key did not error")
	}
	puts, gets := s.Stats()
	if puts != 1 || gets != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", puts, gets)
	}
}

func TestSimStoreRoundTrip(t *testing.T) {
	s := NewSim(netsim.AWSS3(model.Default()))
	if got, want := s.RoundTrip(0), s.Profile().Transfer(0)*2; got != want {
		t.Fatalf("RoundTrip(0) = %v, want %v", got, want)
	}
}

func TestSimStoreConcurrentAccess(t *testing.T) {
	s := NewSim(netsim.SharedMemory())
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			s.Put(key, int64(i))
			if _, _, err := s.Get(key); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	puts, gets := s.Stats()
	if puts != 32 || gets != 32 {
		t.Fatalf("stats = %d/%d, want 32/32", puts, gets)
	}
}

func TestMemStoreCopiesValues(t *testing.T) {
	s := NewMem()
	v := []byte("hello")
	s.Put("k", v)
	v[0] = 'X' // caller mutation must not leak in
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("stored value corrupted: %q", got)
	}
	got[0] = 'Y' // returned copy mutation must not leak back
	again, _ := s.Get("k")
	if !bytes.Equal(again, []byte("hello")) {
		t.Fatalf("returned slice aliases store: %q", again)
	}
	s.Delete("k")
	if _, err := s.Get("k"); err == nil {
		t.Fatal("deleted key still readable")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete", s.Len())
	}
}

// TestNilMemStoreReadsEmpty: a live run with no bound function has a
// nil store, and reading it answers as an empty store would.
func TestNilMemStoreReadsEmpty(t *testing.T) {
	var s *MemStore
	if _, err := s.Get("k"); err == nil {
		t.Fatal("Get on a nil store found a value")
	}
	s.Delete("k")
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d on a nil store", n)
	}
}

func TestTCPStoreEndToEnd(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := bytes.Repeat([]byte("finra-trade-"), 1000)
	if err := c.Put("trades/batch-1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("trades/batch-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(payload))
	}
	if _, err := c.Get("missing"); err == nil {
		t.Fatal("GET of missing key did not error")
	}
	if err := c.Delete("trades/batch-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("trades/batch-1"); err == nil {
		t.Fatal("deleted key still readable over TCP")
	}
}

func TestTCPStoreEmptyValueAndBadKey(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty value came back as %d bytes", len(got))
	}
	if err := c.Put("has space", []byte("x")); err == nil {
		t.Fatal("whitespace key accepted")
	}
}

func TestTCPStoreConcurrentClients(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialTCP(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			key := fmt.Sprintf("k%d", i)
			want := bytes.Repeat([]byte{byte(i)}, 100+i)
			if err := c.Put(key, want); err != nil {
				errs <- err
				return
			}
			got, err := c.Get(key)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("client %d: payload mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

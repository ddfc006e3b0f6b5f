package main

import (
	"sync"
	"time"

	"repro/internal/store"
)

// timedStore is a store.Backend decorator: it counts and times every
// Get (split into hits and misses) and Put, then returns exactly what
// the wrapped backend returned. It is how the benchmark measures the
// store layer from outside: the disk store, the HTTP backend, and the
// store behind serve.Server are each wrapped in one.
type timedStore struct {
	store.Backend
	layer string  // span name prefix, e.g. "store.disk"
	tr    *tracer // nil: no spans

	mu          sync.Mutex
	gets, hits  int
	puts        int
	getS, putS  float64
	getLatency  map[string]float64 // seconds per Get by hash since the last take
	collectGets bool               // keep getLatency (sweep-warm's per-replay latency)
}

func newTimedStore(b store.Backend, layer string, tr *tracer) *timedStore {
	return &timedStore{Backend: b, layer: layer, tr: tr}
}

func (t *timedStore) Get(hash string) (*store.Record, bool, error) {
	t0 := time.Now()
	rec, ok, err := t.Backend.Get(hash)
	d := time.Since(t0)
	t.tr.record(t.layer+".get", t0, d)
	t.mu.Lock()
	t.gets++
	if ok {
		t.hits++
	}
	t.getS += d.Seconds()
	if t.collectGets {
		if t.getLatency == nil {
			t.getLatency = map[string]float64{}
		}
		t.getLatency[hash] = d.Seconds()
	}
	t.mu.Unlock()
	return rec, ok, err
}

func (t *timedStore) Put(rec *store.Record) error {
	t0 := time.Now()
	err := t.Backend.Put(rec)
	d := time.Since(t0)
	t.tr.record(t.layer+".put", t0, d)
	t.mu.Lock()
	t.puts++
	t.putS += d.Seconds()
	t.mu.Unlock()
	return err
}

// storeCounts is one snapshot of a timedStore's counters.
type storeCounts struct {
	gets, hits, puts int
	getS, putS       float64
}

// take returns the counters and per-Get latencies gathered since the
// last take and starts over, so each pass reads only its own calls.
func (t *timedStore) take() (storeCounts, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := storeCounts{gets: t.gets, hits: t.hits, puts: t.puts, getS: t.getS, putS: t.putS}
	lat := t.getLatency
	t.gets, t.hits, t.puts, t.getS, t.putS, t.getLatency = 0, 0, 0, 0, 0, nil
	return c, lat
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. Spans come only from the benchmark's own code,
// around its calls into the program's layers; what happens inside
// exp.Runner and serve.Server is read from the program's own passive
// obs.Registry instead. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool // recording: the current pass is a traced one
	pass  int  // the pass span that caused the spans being recorded
	spans []span
}

type span struct {
	name       string
	pass       int
	start, dur time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now(), pass: -1} }

func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.on {
		t.spans = append(t.spans, span{name: name, pass: t.pass, start: start.Sub(t.t0), dur: d})
	}
	t.mu.Unlock()
}

// beginPass opens pass i, recording its spans only when on: later
// spans name it as their cause.
func (t *tracer) beginPass(i int, on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass, t.on = i, on
	t.mu.Unlock()
}

// writeFile writes the spans as Chrome trace-event JSON (load it in
// Perfetto). Each pass is a root span; the spans it caused carry its
// number as their "pass" argument.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, sp := range t.spans {
		events[i] = event{Name: sp.name, Ph: "X", Ts: float64(sp.start.Nanoseconds()) / 1e3,
			Dur: float64(sp.dur.Nanoseconds()) / 1e3, Pid: 1, Tid: 1, Args: map[string]int{"pass": sp.pass}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median returns the middle value of xs (the mean of the middle two
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least
// tailBeyond samples beyond it, and that percentile. With too few
// samples it falls back to the maximum (percentile 100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

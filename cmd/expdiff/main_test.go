package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/store"
)

func writeBench(t *testing.T, path string, results []benchResult) {
	t.Helper()
	data, err := json.Marshal(benchReport{Schema: "repro-bench/v1", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func baselineBench() []benchResult {
	return []benchResult{
		{Benchmark: "BenchmarkTopology/fat-tree/BS", NsPerOp: 1000000, SimMs: 2.936},
		{Benchmark: "BenchmarkTopology/fat-tree/GS", NsPerOp: 2000000, SimMs: 1.5},
		{Benchmark: "BenchmarkTopology/torus2d/LS", NsPerOp: 3000000, SimMs: 13.45},
	}
}

func TestBenchWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBench(t, oldP, baselineBench())
	moved := baselineBench()
	moved[0].NsPerOp *= 1.10 // +10% < 25%
	moved[1].NsPerOp *= 0.5  // improvements never gate
	writeBench(t, newP, moved)
	var sb strings.Builder
	n, err := run(&sb, oldP, newP, 25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("within-threshold diff reported %d regressions:\n%s", n, sb.String())
	}
}

// TestBenchReadsAllocFieldsAndCommittedBaseline diffs the committed
// BENCH_topo.baseline.json (written before benchjson kept B/op and
// allocs/op) against the same numbers in the newer report shape that
// carries them: both decode, and nothing gates.
func TestBenchReadsAllocFieldsAndCommittedBaseline(t *testing.T) {
	oldP := filepath.Join("..", "..", "BENCH_topo.baseline.json")
	base, err := loadBench(oldP)
	if err != nil {
		t.Fatal(err)
	}
	type withAllocs struct {
		Benchmark   string  `json:"benchmark"`
		NsPerOp     float64 `json:"ns_per_op"`
		SimMs       float64 `json:"sim_ms,omitempty"`
		BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
		AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	}
	var results []withAllocs
	for name, r := range base {
		results = append(results, withAllocs{name, r.NsPerOp, r.SimMs, 4096, 12})
	}
	data, err := json.Marshal(map[string]any{"schema": "repro-bench/v1", "results": results})
	if err != nil {
		t.Fatal(err)
	}
	newP := filepath.Join(t.TempDir(), "new.json")
	if err := os.WriteFile(newP, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	n, err := run(&sb, oldP, newP, 25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("identical numbers reported %d regressions:\n%s", n, sb.String())
	}
}

// TestBenchInjectedRegressionFails is the CI gate's contract: an
// injected ns/op slowdown beyond the threshold must produce a non-zero
// regression count (and thus exit 1).
func TestBenchInjectedRegressionFails(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBench(t, oldP, baselineBench())
	slow := baselineBench()
	slow[2].NsPerOp *= 1.60 // +60% > 25%
	writeBench(t, newP, slow)
	var sb strings.Builder
	n, err := run(&sb, oldP, newP, 25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("injected +60%% regression: got %d regressions, want 1\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") || !strings.Contains(sb.String(), "torus2d/LS") {
		t.Fatalf("report does not name the regression:\n%s", sb.String())
	}
}

func TestBenchSimDriftGates(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBench(t, oldP, baselineBench())
	drifted := baselineBench()
	drifted[0].SimMs = 3.5 // ~19% drift: the simulation's answer changed
	writeBench(t, newP, drifted)
	var sb strings.Builder
	n, err := run(&sb, oldP, newP, 25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(sb.String(), "SIM DRIFT") {
		t.Fatalf("sim drift not gated (n=%d):\n%s", n, sb.String())
	}
}

func TestBenchMissingBenchmarkGates(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBench(t, oldP, baselineBench())
	writeBench(t, newP, baselineBench()[:2])
	var sb strings.Builder
	n, err := run(&sb, oldP, newP, 25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(sb.String(), "MISSING") {
		t.Fatalf("vanished benchmark not gated (n=%d):\n%s", n, sb.String())
	}
}

func TestParsePercent(t *testing.T) {
	for in, want := range map[string]float64{"25%": 25, "25": 25, "0.5%": 0.5, " 10% ": 10} {
		got, err := parsePercent(in)
		if err != nil || got != want {
			t.Fatalf("parsePercent(%q) = %v, %v", in, got, err)
		}
	}
	for _, bad := range []string{"", "x%", "-3%"} {
		if _, err := parsePercent(bad); err == nil {
			t.Fatalf("parsePercent(%q) should fail", bad)
		}
	}
	v, err := parsePercent("none")
	if err != nil || !math.IsInf(v, 1) {
		t.Fatalf("parsePercent(none) = %v, %v, want +Inf", v, err)
	}
}

// TestDisabledGates: "none" must let CI gate ns/op and sim drift
// against different baselines without the other dimension interfering.
func TestDisabledGates(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBench(t, oldP, baselineBench())
	changed := baselineBench()
	changed[0].NsPerOp *= 10 // massive slowdown
	changed[1].SimMs *= 2    // massive sim drift
	writeBench(t, newP, changed)

	var sb strings.Builder
	n, err := run(&sb, oldP, newP, math.Inf(1), 0.1) // ns gate off
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("with -threshold none only the sim drift should gate (n=%d):\n%s", n, sb.String())
	}
	sb.Reset()
	n, err = run(&sb, oldP, newP, 25, math.Inf(1)) // sim gate off
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || strings.Contains(sb.String(), "SIM DRIFT") {
		t.Fatalf("with -sim-threshold none only the ns/op regression should gate (n=%d):\n%s", n, sb.String())
	}
}

func TestMixedKindsRejected(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "a.json")
	writeBench(t, file, baselineBench())
	if _, err := run(io.Discard, dir, file, 25, 0.1); err == nil {
		t.Fatal("store-vs-file comparison should be a usage error")
	}
}

// sweepStore runs a real (cheap) experiment family into a fresh store.
func sweepStore(t *testing.T, dir string, seed int64) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := exp.NewRunner(2)
	r.Store = st
	r.StoreBase = exp.StoreBase(network.DefaultConfig())
	r.Seed = seed
	if err := r.Run(context.Background(), exp.AblationAsyncSpec(network.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDiffIdenticalPasses(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	sweepStore(t, a, 0)
	sweepStore(t, b, 0)
	var sb strings.Builder
	n, err := run(&sb, a, b, 25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !strings.Contains(sb.String(), "16 identical") {
		t.Fatalf("identical sweeps should pass (n=%d):\n%s", n, sb.String())
	}
}

func TestStoreDiffDetectsDrift(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	sweepStore(t, a, 0)
	sweepStore(t, b, 0)
	// Inject drift: rewrite one stored record of b with a perturbed
	// table value (what a silent solver change would produce).
	st, err := store.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.All()
	if err != nil {
		t.Fatal(err)
	}
	victim := recs[3]
	victim.Writes[0].Val = fmt.Sprintf("%.3f", 999.999)
	if err := st.Put(victim); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	n, err := run(&sb, a, b, 25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(sb.String(), "DRIFT") || !strings.Contains(sb.String(), victim.Cell) {
		t.Fatalf("injected drift not reported (n=%d):\n%s", n, sb.String())
	}
}

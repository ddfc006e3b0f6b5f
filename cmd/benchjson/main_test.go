package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Deliberately NOT in sorted order: the report must sort regardless of
// how `go test` interleaved the benchmark lines.
const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: whatever
BenchmarkTopology/torus2d/GS-8          	       2	   1523000 ns/op
BenchmarkTopology/fat-tree/LS-8         	       1	  52124875 ns/op	        13.45 sim_ms
BenchmarkFig5CompleteExchange32/LEX/0B-8	       1	   9000000 ns/op	        36.90 sim_ms
BenchmarkScheduleConstruction/hotspot-1024/GS-8	      40	    758342 ns/op	  307880 B/op	      24 allocs/op
PASS
ok  	repro	1.234s
`

func TestRunParsesBenchOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(sample), out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" {
		t.Errorf("goos/goarch = %q/%q", rep.GoOS, rep.GoArch)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("%d results, want 4", len(rep.Results))
	}
	// Sorted by benchmark name, not input order.
	wantOrder := []string{
		"BenchmarkFig5CompleteExchange32/LEX/0B",
		"BenchmarkScheduleConstruction/hotspot-1024/GS",
		"BenchmarkTopology/fat-tree/LS",
		"BenchmarkTopology/torus2d/GS",
	}
	for i, want := range wantOrder {
		if rep.Results[i].Benchmark != want {
			t.Fatalf("result %d = %q, want %q (sorted)", i, rep.Results[i].Benchmark, want)
		}
	}
	ft := rep.Results[2]
	if ft.Topology != "fat-tree" || ft.Algorithm != "LS" {
		t.Errorf("topology/algorithm = %q/%q", ft.Topology, ft.Algorithm)
	}
	if ft.NsPerOp != 52124875 || ft.Iterations != 1 || ft.SimMs != 13.45 {
		t.Errorf("fat-tree result fields wrong: %+v", ft)
	}
	if rep.Results[3].SimMs != 0 {
		t.Errorf("missing sim_ms should stay zero, got %v", rep.Results[3].SimMs)
	}
	gs := rep.Results[1]
	if gs.NsPerOp != 758342 || gs.Iterations != 40 || gs.BytesPerOp != 307880 || gs.AllocsPerOp != 24 {
		t.Errorf("-benchmem result fields wrong: %+v", gs)
	}
	// Lines without -benchmem columns omit the fields entirely, so
	// reports of benchmarks that never report allocations keep their
	// old shape.
	if c := strings.Count(string(data), `"bytes_per_op"`); c != 1 {
		t.Errorf("bytes_per_op appears %d times, want 1:\n%s", c, data)
	}
	if c := strings.Count(string(data), `"allocs_per_op"`); c != 1 {
		t.Errorf("allocs_per_op appears %d times, want 1:\n%s", c, data)
	}
	if rep.Results[0].Topology != "" {
		t.Errorf("non-topology benchmarks should not get a topology label: %+v", rep.Results[0])
	}
}

func TestRunOutputDeterministic(t *testing.T) {
	a := filepath.Join(t.TempDir(), "a.json")
	b := filepath.Join(t.TempDir(), "b.json")
	// Same lines, different interleaving: identical bytes out.
	shuffled := strings.Replace(sample,
		"BenchmarkTopology/torus2d/GS-8          \t       2\t   1523000 ns/op\nBenchmarkTopology/fat-tree/LS-8         \t       1\t  52124875 ns/op\t        13.45 sim_ms",
		"BenchmarkTopology/fat-tree/LS-8         \t       1\t  52124875 ns/op\t        13.45 sim_ms\nBenchmarkTopology/torus2d/GS-8          \t       2\t   1523000 ns/op", 1)
	if shuffled == sample {
		t.Fatal("test bug: shuffle did nothing")
	}
	if err := run(strings.NewReader(sample), a); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(shuffled), b); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if string(da) != string(db) {
		t.Fatalf("reordered input changed the report:\n%s\nvs\n%s", da, db)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(strings.NewReader("PASS\n"), ""); err == nil {
		t.Fatal("empty bench output should error")
	}
}

// Command benchjson converts `go test -bench` output on stdin into a
// JSON benchmark report. It understands the BenchmarkTopology/<topo>/<alg>
// naming of this repo's topology benchmarks and records ns/op per
// (topology, algorithm) cell; other benchmark lines pass through with
// the sub-benchmark path split on "/". The sim_ms metric and, for
// benchmarks run with -benchmem or b.ReportAllocs, B/op and allocs/op
// are kept alongside ns/op.
//
// Usage (what `make bench-json` runs):
//
//	go test -run '^$' -bench BenchmarkTopology -benchtime 1x . | benchjson -out BENCH_topo.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Benchmark   string  `json:"benchmark"`
	Topology    string  `json:"topology,omitempty"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	SimMs       float64 `json:"sim_ms,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// ReportSchema versions the report format so downstream consumers
// (cmd/expdiff, CI artifact diffs) can detect incompatible files.
const ReportSchema = "repro-bench/v1"

// Report is the file benchjson writes. Results are sorted by benchmark
// name, so reports are deterministic across runs and diff cleanly.
type Report struct {
	Schema  string   `json:"schema"`
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	Results []Result `json:"results"`
}

// benchLine matches e.g.
//
//	BenchmarkTopology/fat-tree/BS-8   1   123456 ns/op   0.42 sim_ms   2048 B/op   17 allocs/op
//
// capturing the name (without the -GOMAXPROCS suffix), the iteration
// count, ns/op and the rest of the line's "value unit" metric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op((?:\s+[\d.]+ \S+)*)`)

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()
	if err := run(os.Stdin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, outPath string) error {
	rep := Report{Schema: ReportSchema}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.Atoi(m[2])
		if err != nil {
			return fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		r := Result{Benchmark: m[1], Iterations: iters, NsPerOp: ns}
		metrics := strings.Fields(m[4])
		for k := 0; k+1 < len(metrics); k += 2 {
			val, unit := metrics[k], metrics[k+1]
			switch unit {
			case "sim_ms":
				r.SimMs, err = strconv.ParseFloat(val, 64)
			case "B/op":
				r.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
			}
			if err != nil {
				return fmt.Errorf("bad %s in %q: %w", unit, line, err)
			}
		}
		// BenchmarkTopology/<topology>/<algorithm>: name the axes.
		if parts := strings.Split(m[1], "/"); len(parts) == 3 && parts[0] == "BenchmarkTopology" {
			r.Topology, r.Algorithm = parts[1], parts[2]
		}
		rep.Results = append(rep.Results, r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (did the bench run fail?)")
	}
	// Deterministic order regardless of how `go test` interleaved the
	// benchmarks: sorted by name (names are unique per run).
	sort.Slice(rep.Results, func(i, j int) bool {
		return rep.Results[i].Benchmark < rep.Results[j].Benchmark
	})
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

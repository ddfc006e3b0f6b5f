// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator's public Go packages in a single process, checks
// the output of every operation, and prints one JSON result line last:
//
//	go run . --workload sweep-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. A human
// report goes to standard error. README.md describes the workloads and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads is the benchmark's workload table, in the order README.md
// lists them with the reason for each.
var workloads = []struct {
	name string
	run  func(b *bench) error
}{
	{"sweep-cold", runSweepCold},
	{"sweep-warm", runSweepWarm},
	{"serve-mixed", runServeMixed},
	{"plan-1024", runPlan},
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
}

// passResult is what one measured pass of a workload produced.
type passResult struct {
	wall  float64   // host seconds
	alloc float64   // MB of Go heap allocated
	lat   []float64 // host seconds per operation, in the same order every pass
}

// bench accumulates one run: passes, set-ups, checks, and (traced runs)
// the per-layer totals of the traced passes.
type bench struct {
	opts options
	tr   *tracer // non-nil in traced runs

	setups    []float64
	untraced  []passResult
	traced    []passResult
	attempted int
	failed    int
	failures  []string
	modelErr  float64
	fillS     float64 // sweep-warm: host seconds of the cold fill before the passes
	// inexact counts serve bodies that matched serve.RunOne only within
	// sameResult's level_utilization tolerance, not byte for byte.
	inexact int

	// layer holds per-layer totals summed over the traced passes;
	// layerLat pools per-operation latencies by class (serve hit/miss/
	// coalesced) over the traced passes.
	layer    map[string]float64
	layerLat map[string][]float64
}

func newBench(o options) *bench {
	b := &bench{opts: o, layer: map[string]float64{}, layerLat: map[string][]float64{}}
	if o.trace {
		b.tr = newTracer()
	}
	return b
}

// op counts one checked operation; a non-nil err is a failure.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.fail(1, err)
	}
}

// serveOp counts one checked serve response; exact says whether its
// body matched serve.RunOne byte for byte.
func (b *bench) serveOp(exact bool, err error) {
	b.op(err)
	if err == nil && !exact {
		b.inexact++
	}
}

// fail counts n failed operations (already attempted) with their cause.
func (b *bench) fail(n int, err error) {
	b.failed += n
	if len(b.failures) < 10 {
		b.failures = append(b.failures, err.Error())
	}
}

// timeSetup runs one set-up step and records its host time.
func (b *bench) timeSetup(fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return nil
}

// loop runs passes until the run's seconds are spent and at least min
// passes are done. In a traced run odd passes are traced and even ones
// not, so the run also measures the tracing overhead; a traced run does
// at least two passes of each kind.
func (b *bench) loop(min int, pass func(i int, traced bool) error) error {
	if b.tr != nil && min < 4 {
		min = 4
	}
	start := time.Now()
	for i := 0; i < min || time.Since(start).Seconds() < b.opts.seconds; i++ {
		if err := pass(i, b.tr != nil && i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the timed part of a pass: host wall time and Go heap
// bytes allocated, after a GC so one pass's garbage is not charged to
// the next.
func measure(fn func() error) (wall, allocMB float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = fn()
	wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return wall, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, err
}

// addPass files a measured pass under its kind.
func (b *bench) addPass(p passResult, traced bool) {
	if traced {
		b.traced = append(b.traced, p)
	} else {
		b.untraced = append(b.untraced, p)
	}
}

// metric is one named result value.
type metric struct {
	name, unit string
	value      float64
	note       string // report-only: the percentile, sample count or ratio base
}

// endToEnd derives the end-to-end metrics from the untraced passes.
// Every pass runs the same operations, so an operation's latency is its
// median over the passes, and the p50 and tail are taken over those.
func (b *bench) endToEnd() []metric {
	var walls, rates, allocs []float64
	for _, p := range b.untraced {
		walls = append(walls, p.wall)
		rates = append(rates, float64(len(p.lat))/p.wall)
		allocs = append(allocs, p.alloc)
	}
	ops := opMedians(b.untraced)
	tailV, tailPct := tail(ops)
	okRatio := float64(b.attempted-b.failed) / float64(b.attempted)
	return []metric{
		{"wall_s", "s", median(walls), fmt.Sprintf("median of %d passes", len(walls))},
		{"ops_per_s", "1/s", median(rates), "operations completed per host second, median pass"},
		{"op_p50_ms", "ms", 1e3 * median(ops), fmt.Sprintf("over %d operations, each its median over %d passes",
			len(ops), len(b.untraced))},
		{"op_tail_ms", "ms", 1e3 * tailV, fmt.Sprintf("p%.1f (%d operations beyond it) of the same; %d samples",
			tailPct, tailBeyond, len(ops)*len(b.untraced))},
		{"ok_ratio", "ratio", okRatio, fmt.Sprintf("failed_ratio = %d failed / %d attempted", b.failed, b.attempted)},
		{"alloc_mb", "MB", median(allocs), "Go heap allocated per pass, median"},
		{"setup_s", "s", median(b.setups), fmt.Sprintf("median of %d set-ups", len(b.setups))},
		{"model_err_pct", "%", b.modelErr, "median |simulated - paper| / paper over Tables 11 and 12"},
	}
}

// opMedians returns each operation's median latency over the passes;
// lat[i] is the same operation in every pass.
func opMedians(passes []passResult) []float64 {
	var ops []float64
	for i := 0; ; i++ {
		var col []float64
		for _, p := range passes {
			if i < len(p.lat) {
				col = append(col, p.lat[i])
			}
		}
		if len(col) == 0 {
			return ops
		}
		ops = append(ops, median(col))
	}
}

// perLayer derives the per-layer metrics from the traced passes' totals:
// each count and time is per pass, each ratio comes from the summed
// totals and names its base.
func (b *bench) perLayer() []metric {
	n := float64(len(b.traced))
	per := func(k string) float64 { return b.layer[k] / n }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	L := b.layer
	solve, exec, events := L["network.solve_s"], L["sched.exec_s"], L["sim.events"]
	var wall float64
	for _, p := range b.traced {
		wall += p.wall
	}
	ms := []metric{
		{"network.solve_s", "s", per("network.solve_s"), "max-min solver host time per pass (program registry)"},
		{"network.solves", "count", per("network.solves"), ""},
		{"network.us_per_solve", "us", 1e6 * ratio(solve, L["network.solves"]), fmt.Sprintf("base: %.0f solves", L["network.solves"])},
		{"network.flows", "count", per("network.flows"), ""},
		{"network.solve_share", "ratio", ratio(solve, exec), fmt.Sprintf("base: sched.exec_s %.3f s over %d passes", exec, len(b.traced))},
		{"sim.events", "count", per("sim.events"), ""},
		{"sim.ns_per_event", "ns", 1e9 * ratio(exec-solve, events), fmt.Sprintf("base: (exec %.3f s - solve %.3f s) over %.0f events", exec, solve, events)},
		{"sched.exec_s", "s", per("sched.exec_s"), "host time running simulations per pass"},
		{"sched.plan_s", "s", per("sched.plan_s"), fmt.Sprintf("%.1f%% of the traced passes' %.3f s wall", 100*ratio(L["sched.plan_s"], wall), wall)},
	}
	for _, alg := range irregularAlgs {
		ms = append(ms, metric{"sched.plan_s." + alg, "s", per("sched.plan_s." + alg), ""})
	}
	ms = append(ms, []metric{
		{"sched.plans", "count", per("sched.plans"), ""},
		{"sched.steps", "count", per("sched.steps"), ""},
		{"exp.cell_s", "s", per("exp.cell_s"), ""},
		{"exp.cells", "count", per("exp.cells"), ""},
		{"exp.replayed", "count", per("exp.replayed"), ""},
		{"exp.simulated", "count", per("exp.simulated"), ""},
		{"exp.idle_share", "ratio", ratio(L["exp.worker_s"]-L["exp.cell_s"], L["exp.worker_s"]),
			fmt.Sprintf("base: %d workers x %.3f s wall = %.3f worker-s", sweepWorkers, wall, L["exp.worker_s"])},
		{"exp.render_s", "s", per("exp.render_s"), ""},
		{"store.disk.get_s", "s", per("store.disk.get_s"), ""},
		{"store.disk.gets", "count", per("store.disk.gets"), ""},
		{"store.disk.put_s", "s", per("store.disk.put_s"), ""},
		{"store.disk.puts", "count", per("store.disk.puts"), ""},
		{"store.http.get_s", "s", per("store.http.get_s"), ""},
		{"store.http.gets", "count", per("store.http.gets"), ""},
		{"store.hit_ratio", "ratio", ratio(L["store.disk.hits"], L["store.disk.gets"]),
			fmt.Sprintf("base: %.0f disk-store gets", L["store.disk.gets"])},
		{"serve.hits", "count", per("serve.hits"), ""},
		{"serve.misses", "count", per("serve.misses"), ""},
		{"serve.coalesced", "count", per("serve.coalesced"), ""},
		{"serve.rejected", "count", per("serve.rejected"), ""},
		{"serve.inexact_bodies", "count", per("serve.inexact_bodies"),
			fmt.Sprintf("responses per pass equal to serve.RunOne only within %g in level_utilization", utilTol)},
	}...)
	for _, c := range []string{"hit", "miss", "coalesced"} {
		lat := b.layerLat[c]
		ms = append(ms, metric{"serve." + c + "_p50_ms", "ms", 1e3 * median(lat), fmt.Sprintf("base: %d requests", len(lat))})
	}
	return ms
}

// addLayers folds one traced pass's layer totals into the run's.
func (b *bench) addLayers(totals map[string]float64) {
	for k, v := range totals {
		b.layer[k] += v
	}
}

// traceOverhead is the traced passes' median wall minus the untraced
// passes' median wall.
func (b *bench) traceOverhead() float64 {
	var t, u []float64
	for _, p := range b.traced {
		t = append(t, p.wall)
	}
	for _, p := range b.untraced {
		u = append(u, p.wall)
	}
	return median(t) - median(u)
}

// report prints the metrics by name with their units, and the failures.
func (b *bench) report(w io.Writer, ms []metric) {
	kind := "untraced"
	if b.tr != nil {
		kind = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d %s: %d untraced + %d traced passes\n",
		b.opts.workload, b.opts.seed, kind, len(b.untraced), len(b.traced))
	for _, ps := range [][]passResult{b.untraced, b.traced} {
		if len(ps) == 0 {
			continue
		}
		for _, p := range ps {
			fmt.Fprintf(w, " %.4g", p.wall)
		}
		fmt.Fprintln(w, " s: pass walls")
	}
	for _, m := range ms {
		fmt.Fprintf(w, "  %-26s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if b.tr != nil {
		fmt.Fprintf(w, "  tracing overhead: %+.4f s per pass (traced median wall - untraced median wall)\n", b.traceOverhead())
	}
	if b.fillS > 0 {
		fmt.Fprintf(w, "  fill: %.4g s for the cold sweep the passes replay (not set-up; sweep-cold measures it)\n", b.fillS)
	}
	fmt.Fprintf(w, "  failed_ratio: %d / %d\n", b.failed, b.attempted)
	if b.inexact > 0 {
		fmt.Fprintf(w, "  inexact: %d passing serve bodies differ from serve.RunOne in the last bits of level_utilization\n", b.inexact)
	}
	for _, f := range b.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) result(ms []metric) result {
	r := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		r.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return r
}

// runWorkload runs the named workload and returns its finished bench.
func runWorkload(o options) (*bench, error) {
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		b := newBench(o)
		if err := w.run(b); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		if b.attempted == 0 || len(b.untraced) == 0 {
			return nil, fmt.Errorf("%s: no operation was measured", o.workload)
		}
		return b, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(names, " "))
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep-cold, sweep-warm, serve-mixed or plan-1024")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to keep measuring passes")
	flag.IntVar(&traceFlag, "trace", 0, "1: a traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for stores and trace files")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	b, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ms := b.endToEnd()
	if b.tr != nil {
		ms = b.perLayer()
		path := filepath.Join(o.workDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := b.tr.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	b.report(os.Stderr, ms)
	line, err := json.Marshal(b.result(ms))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

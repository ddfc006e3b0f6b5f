package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// sweepFamilies are the cmexp families both sweep workloads run: the
// paper's regular exchanges (fig8), the irregular schedulers across
// interconnects (topology), the paper's two irregular tables, and the
// recorded applications (apps).
var sweepFamilies = []string{"fig8", "topology", "table11", "table12", "apps"}

// sweepWorkers is the worker-pool width of every runner the sweeps use,
// and the daemon's simulation slots on serve-mixed: the CPUs of the
// machine the benchmark was sized on.
const sweepWorkers = 2

var irregularAlgs = exp.IrregularAlgs

// reference holds what the plain storeless serial exp.Runner path
// renders for sweepFamilies: one digest per table and the model error.
// reference_test.go regenerates it (go test -run TestReference -update).
type reference struct {
	Families    []string   `json:"families"`
	Tables      []refTable `json:"tables"`
	ModelErrPct float64    `json:"model_err_pct"`
}

type refTable struct {
	Title  string `json:"title"`
	SHA256 string `json:"sha256"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// buildSpecs builds the sweep's specs; st is the backend the apps
// family's trace library records into (nil: memo only).
func buildSpecs(cfg network.Config, st store.Backend) ([]*exp.TableSpec, error) {
	var specs []*exp.TableSpec
	for _, name := range sweepFamilies {
		ss, err := exp.FamilySpecsStore(name, cfg, st)
		if err != nil {
			return nil, err
		}
		specs = append(specs, ss...)
	}
	return specs, nil
}

func countCells(specs []*exp.TableSpec) int {
	n := 0
	for _, s := range specs {
		n += len(s.Cells)
	}
	return n
}

// render writes the tables exactly as cmexp prints them.
func render(specs []*exp.TableSpec) ([]byte, error) {
	tables := make([]*exp.Table, len(specs))
	for i, s := range specs {
		tables[i] = s.Table
	}
	var buf bytes.Buffer
	err := exp.WriteTables(&buf, exp.FormatText, tables)
	return buf.Bytes(), err
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// referenceOf computes the reference of a finished sweep.
func referenceOf(specs []*exp.TableSpec) (*reference, error) {
	ref := &reference{Families: sweepFamilies}
	for _, s := range specs {
		ref.Tables = append(ref.Tables, refTable{Title: s.Table.Title, SHA256: digest(s.Table.Render())})
	}
	var err error
	ref.ModelErrPct, err = modelErrPct(specs)
	return ref, err
}

// checkTables compares every table with its reference digest. A table
// that differs fails all of its cells; the count of failed cells and the
// first difference are returned.
func checkTables(specs []*exp.TableSpec, ref *reference) (int, error) {
	if len(specs) != len(ref.Tables) {
		return countCells(specs), fmt.Errorf("sweep rendered %d tables, reference has %d", len(specs), len(ref.Tables))
	}
	failed := 0
	var first error
	for i, s := range specs {
		if digest(s.Table.Render()) != ref.Tables[i].SHA256 {
			failed += len(s.Cells)
			if first == nil {
				first = fmt.Errorf("table %q differs from its reference digest", s.Table.Title)
			}
		}
	}
	return failed, first
}

// modelErrPct is the median over the Table 11 and Table 12 cells of
// |simulated - paper| / paper, in percent. The simulated values are the
// rendered table cells; the paper's come from exp.PaperTable11/12.
func modelErrPct(specs []*exp.TableSpec) (float64, error) {
	var t11, t12 *exp.Table
	for _, s := range specs {
		switch s.Name {
		case "table11":
			t11 = s.Table
		case "table12":
			t12 = s.Table
		}
	}
	if t11 == nil || t12 == nil {
		return 0, errors.New("model error needs tables 11 and 12")
	}
	var errs []float64
	add := func(cell string, paper float64) error {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return fmt.Errorf("simulated cell %q: %w", cell, err)
		}
		errs = append(errs, 100*math.Abs(v-paper)/paper)
		return nil
	}
	for a, alg := range irregularAlgs {
		c := 0
		for _, d := range exp.Table11Densities {
			for _, size := range exp.Table11Sizes {
				if err := add(t11.Cells[2*a][c], exp.PaperTable11[alg][d][size]); err != nil {
					return 0, err
				}
				c++
			}
		}
		for c, prob := range exp.PaperTable12 {
			if err := add(t12.Cells[2*a][c], prob.PaperMs[alg]); err != nil {
				return 0, err
			}
		}
	}
	sort.Float64s(errs)
	return median(errs), nil
}

// checkModel counts the model-error check as one operation: the value
// must equal the reference exactly.
func (b *bench) checkModel(got float64, ref *reference) {
	b.modelErr = got
	var err error
	if got != ref.ModelErrPct {
		err = fmt.Errorf("model_err_pct %v, reference %v", got, ref.ModelErrPct)
	}
	b.op(err)
}

// modelCheck runs Tables 11 and 12 storeless, untimed, for the
// workloads that do not produce them, and checks their model error.
func (b *bench) modelCheck(cfg network.Config, ref *reference) error {
	t11 := exp.Table11Spec(cfg)
	t12, _, err := exp.Table12Spec(cfg)
	if err != nil {
		return err
	}
	r := exp.Runner{Workers: sweepWorkers}
	if err := r.Run(context.Background(), t11, t12); err != nil {
		return err
	}
	got, err := modelErrPct([]*exp.TableSpec{t11, t12})
	if err != nil {
		return err
	}
	b.checkModel(got, ref)
	return nil
}

// timeCells wraps every cell function with a timer: the per-cell host
// latency of a cold sweep, one slot per cell in spec order. Cell keys
// and specs are untouched, so the store addresses are the same. Each
// slot is written by the one worker running its cell and read after
// Runner.Run returns.
func timeCells(specs []*exp.TableSpec, tr *tracer) []float64 {
	lat := make([]float64, countCells(specs))
	k := 0
	for _, s := range specs {
		for i := range s.Cells {
			fn, slot := s.Cells[i].Fn, k
			s.Cells[i].Fn = func(ctx context.Context, seed int64, rec *exp.Rec) error {
				t0 := time.Now()
				err := fn(ctx, seed, rec)
				d := time.Since(t0)
				tr.record("exp.cell", t0, d)
				lat[slot] = d.Seconds()
				return err
			}
			k++
		}
	}
	return lat
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// simLayers reads the simulation layers' counters from a program
// registry: solver time and count, flows, engine events and executor
// steps.
func simLayers(reg *obs.Registry) map[string]float64 {
	return map[string]float64{
		"network.solve_s": reg.Histogram("net_maxmin_solve_seconds", obs.SecondsBuckets()).Sum(),
		"network.solves":  float64(reg.Counter("net_maxmin_solves_total").Value()),
		"network.flows":   float64(reg.Counter("net_flows_started_total").Value()),
		"sim.events":      float64(reg.Counter("sim_events_fired_total").Value()),
		"sched.steps":     float64(reg.Counter("sched_steps_total").Value()),
	}
}

// storeLayers names one timed store's counters as layer totals.
func storeLayers(into map[string]float64, c storeCounts, layer string) {
	into[layer+".get_s"] += c.getS
	into[layer+".gets"] += float64(c.gets)
	into[layer+".put_s"] += c.putS
	into[layer+".puts"] += float64(c.puts)
	into[layer+".hits"] += float64(c.hits)
}

// newSweepRunner is the two-worker runner of a sweep pass over st; a
// traced pass attaches a registry.
func newSweepRunner(cfg network.Config, st store.Backend, traced bool) *exp.Runner {
	r := &exp.Runner{Workers: sweepWorkers, Store: st, StoreBase: exp.StoreBase(cfg)}
	if traced {
		r.Metrics = obs.NewRegistry()
	}
	return r
}

// runSweep is the measured part of a sweep pass: run every cell, then
// render the tables as cmexp prints them.
func runSweep(r *exp.Runner, specs []*exp.TableSpec, tr *tracer) (out []byte, renderS float64, err error) {
	if err := r.Run(context.Background(), specs...); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	out, err = render(specs)
	d := time.Since(t0)
	tr.record("exp.render", t0, d)
	return out, d.Seconds(), err
}

// sweepLayers names a traced sweep pass's orchestrator totals and the
// simulation counters of its registry.
func sweepLayers(r *exp.Runner, cells int, cellS, wall, renderS float64) map[string]float64 {
	L := simLayers(r.Metrics)
	L["exp.cell_s"] = cellS
	L["exp.cells"] = float64(cells)
	L["exp.replayed"] = float64(r.CacheHits())
	L["exp.simulated"] = float64(r.CacheMisses())
	L["exp.worker_s"] = sweepWorkers * wall
	L["exp.render_s"] = renderS
	return L
}

// runSweepCold simulates the sweep into a fresh disk store each pass,
// with a two-worker exp.Runner, and renders it. Operations are cells.
func runSweepCold(b *bench) error {
	cfg := network.DefaultConfig()
	ref, err := loadReference()
	if err != nil {
		return err
	}
	return b.loop(3, func(i int, traced bool) error {
		dir := filepath.Join(b.opts.workDir, fmt.Sprintf("cold-%d-%d", os.Getpid(), i))
		defer os.RemoveAll(dir)
		var (
			st    *timedStore
			specs []*exp.TableSpec
			lat   []float64
		)
		if err := b.timeSetup(func() error {
			disk, err := store.Open(dir)
			if err != nil {
				return err
			}
			st = newTimedStore(disk, "store.disk", b.tr)
			if specs, err = buildSpecs(cfg, st); err != nil {
				return err
			}
			lat = timeCells(specs, b.tr)
			return nil
		}); err != nil {
			return err
		}
		b.tr.beginPass(i, traced)
		r := newSweepRunner(cfg, st, traced)
		var renderS float64
		wall, alloc, runErr := measure(func() (err error) {
			_, renderS, err = runSweep(r, specs, b.tr)
			return err
		})
		n := len(lat)
		b.attempted += n
		if runErr != nil {
			b.fail(n, runErr)
		} else if failed, err := checkTables(specs, ref); err != nil {
			b.fail(failed, err)
		}
		if got, err := modelErrPct(specs); err != nil {
			b.op(err)
		} else {
			b.checkModel(got, ref)
		}
		b.addPass(passResult{wall: wall, alloc: alloc, lat: lat}, traced)
		if traced {
			L := sweepLayers(r, n, sum(lat), wall, renderS)
			L["sched.exec_s"] = sum(lat)
			c, _ := st.take()
			storeLayers(L, c, "store.disk")
			b.addLayers(L)
		}
		return nil
	})
}

// daemon is an in-process serve.Server listening on loopback.
type daemon struct {
	srv *serve.Server
	hs  *http.Server
	url string
	// done is closed once the serving goroutine has returned.
	done chan struct{}
}

func startDaemon(srv *serve.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop closes the listener and every connection, and waits for the
// serving goroutine.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.done
}

// runSweepWarm fills a disk store with one cold sweep before the passes.
// Each pass then resumes from it the way a fleet worker does: set-up
// (timed per pass) opens the filled store, starts an in-process daemon
// over it on loopback and builds the specs against a store.HTTPBackend;
// the measured part replays every cell through that backend and renders
// the tables. Operations are cell replays, timed as their store Get.
func runSweepWarm(b *bench) error {
	cfg := network.DefaultConfig()
	ref, err := loadReference()
	if err != nil {
		return err
	}
	dir := filepath.Join(b.opts.workDir, fmt.Sprintf("warm-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	t0 := time.Now()
	disk, err := store.Open(dir)
	if err != nil {
		return err
	}
	fill, err := buildSpecs(cfg, disk)
	if err != nil {
		return err
	}
	if err := newSweepRunner(cfg, disk, false).Run(context.Background(), fill...); err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	coldOut, err := render(fill)
	if err != nil {
		return err
	}
	b.fillS = time.Since(t0).Seconds()
	b.attempted += countCells(fill)
	if failed, err := checkTables(fill, ref); err != nil {
		b.fail(failed, fmt.Errorf("fill: %w", err))
	}
	return b.loop(3, func(i int, traced bool) error {
		var (
			diskT  *timedStore
			httpT  *timedStore
			d      *daemon
			specs  []*exp.TableSpec
			hashes map[string]int // cell record hash -> the cell's position in spec order
		)
		defer func() {
			if d != nil {
				d.stop()
				http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			}
		}()
		if err := b.timeSetup(func() error {
			disk, err := store.Open(dir)
			if err != nil {
				return err
			}
			diskT = newTimedStore(disk, "store.disk", b.tr)
			srv := serve.New(cfg, diskT, serve.WithWorkers(sweepWorkers))
			if d, err = startDaemon(srv); err != nil {
				return err
			}
			hb, err := store.NewHTTPBackend(d.url)
			if err != nil {
				return err
			}
			httpT = newTimedStore(hb, "store.http", b.tr)
			httpT.collectGets = true
			if specs, err = buildSpecs(cfg, httpT); err != nil {
				return err
			}
			pos := map[string]int{}
			for _, s := range specs {
				for _, c := range s.Cells {
					pos[c.Key] = len(pos)
				}
			}
			hashes = map[string]int{}
			for _, e := range disk.Index() {
				if k, ok := pos[e.Cell]; ok {
					hashes[e.Hash] = k
				}
			}
			return nil
		}); err != nil {
			return err
		}
		diskT.take()
		httpT.take()
		b.tr.beginPass(i, traced)
		r := newSweepRunner(cfg, httpT, traced)
		var out []byte
		var renderS float64
		wall, alloc, runErr := measure(func() (err error) {
			out, renderS, err = runSweep(r, specs, b.tr)
			return err
		})
		hc, gets := httpT.take()
		lat := make([]float64, len(hashes))
		for h, d := range gets {
			if k, ok := hashes[h]; ok {
				lat[k] = d
			}
		}
		dc, _ := diskT.take()
		n := countCells(specs)
		b.attempted += n
		switch {
		case runErr != nil:
			b.fail(n, runErr)
		case r.CacheMisses() != 0 || r.CacheHits() != n:
			b.fail(n-r.CacheHits(), fmt.Errorf("warm pass replayed %d of %d cells", r.CacheHits(), n))
		case !bytes.Equal(out, coldOut):
			failed, err := checkTables(specs, ref)
			if err == nil {
				failed, err = n, errors.New("warm output differs from the cold output")
			}
			b.fail(failed, err)
		}
		if got, err := modelErrPct(specs); err != nil {
			b.op(err)
		} else {
			b.checkModel(got, ref)
		}
		b.addPass(passResult{wall: wall, alloc: alloc, lat: lat}, traced)
		if traced {
			L := sweepLayers(r, n, sum(lat), wall, renderS)
			storeLayers(L, hc, "store.http")
			storeLayers(L, dc, "store.disk")
			b.addLayers(L)
		}
		return nil
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/serve"
	"repro/internal/store"
)

// Request kinds of the serve-mixed sequence.
const (
	reqHit   = 'h' // repeats a spec warmed in set-up: X-Cache hit
	reqMiss  = 'm' // a fresh spec's only request: X-Cache miss
	reqPairA = 'a' // first of two posts of one fresh spec, sent together
	reqPairB = 'b' // second of the pair; always right after its reqPairA
)

// mixRequest is one request of the sequence: a spec index and its kind.
type mixRequest struct {
	spec int
	kind byte
}

// serveMix is serve-mixed's generated input.
type serveMix struct {
	specs []serve.JobSpec
	warm  int // specs[:warm] are posted in set-up
	reqs  []mixRequest
}

// faultProfiles are the non-healthy profiles a few fresh specs carry.
var faultProfiles = []string{"link-down", "degrade", "straggler", "crosstraffic"}

// Shape of the sequence: per fresh request (miss or pair member) four
// hits make it ~80% hits; of the fresh specs at the smallest size,
// mixPairs are posted as pairs and mixFaults carry a fault profile.
const (
	mixHitsPerFresh = 4
	mixPairs        = 32
	mixFaults       = 16
)

// serveFreshN are the machine sizes of serve-mixed's fresh specs.
var serveFreshN = []int{64, 256}

// serveSequence generates serve-mixed's specs and request order from
// seed. The warmed set mixes exchanges and irregular jobs at N=32/64;
// the fresh set is every irregular scheduler x catalogue workload x
// interconnect at each of serveFreshN, so every seed has the same cost
// shape and the seed picks the pattern seeds, the pairs, the faulted
// specs, the hits and the order.
func serveSequence(seed int64) serveMix {
	rng := rand.New(rand.NewSource(seed))
	var mix serveMix
	sizes := []int{64, 128, 256, 512, 1024, 2048}
	for _, alg := range exp.ExchangeAlgs {
		for _, n := range []int{32, 64} {
			for _, k := range rng.Perm(len(sizes))[:2] {
				mix.specs = append(mix.specs, serve.JobSpec{Algorithm: alg, N: n, Bytes: sizes[k]})
			}
		}
	}
	for _, alg := range irregularAlgs {
		for _, w := range append(pattern.WorkloadNames(), serve.SyntheticWorkload) {
			js := serve.JobSpec{Algorithm: alg, N: 32, Bytes: 256 << rng.Intn(3), Workload: w,
				Topology: exp.TopologyNames[rng.Intn(len(exp.TopologyNames))], Seed: rng.Int63n(1 << 31)}
			if w == serve.SyntheticWorkload {
				js.Density = 0.1 * float64(1+rng.Intn(5))
			}
			mix.specs = append(mix.specs, js)
		}
	}
	mix.warm = len(mix.specs)
	var small []int // fresh spec indexes at the smallest size
	for _, n := range serveFreshN {
		for _, w := range pattern.WorkloadNames() {
			for _, tp := range exp.TopologyNames {
				for _, alg := range irregularAlgs {
					if n == serveFreshN[0] {
						small = append(small, len(mix.specs))
					}
					mix.specs = append(mix.specs, serve.JobSpec{Algorithm: alg, N: n, Bytes: 256,
						Workload: w, Topology: tp, Seed: rng.Int63n(1 << 31)})
				}
			}
		}
	}
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	paired := map[int]bool{}
	for k, i := range small[:mixFaults] {
		mix.specs[i].FaultProfile = faultProfiles[k%len(faultProfiles)]
	}
	for _, i := range small[mixFaults : mixFaults+mixPairs] {
		paired[i] = true
	}
	// Shuffle units (a pair stays two adjacent requests), then expand.
	var units []mixRequest
	fresh := 0
	for i := mix.warm; i < len(mix.specs); i++ {
		if paired[i] {
			units = append(units, mixRequest{i, reqPairA})
			fresh += 2
		} else {
			units = append(units, mixRequest{i, reqMiss})
			fresh++
		}
	}
	for k := 0; k < mixHitsPerFresh*fresh; k++ {
		units = append(units, mixRequest{rng.Intn(mix.warm), reqHit})
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	for _, u := range units {
		mix.reqs = append(mix.reqs, u)
		if u.kind == reqPairA {
			mix.reqs = append(mix.reqs, mixRequest{u.spec, reqPairB})
		}
	}
	return mix
}

// reply is one response as the client saw it.
type reply struct {
	status int
	cache  string
	body   []byte
	lat    float64 // seconds from sending the request to reading the whole body
	err    error
}

func post(c *http.Client, url string, body []byte) reply {
	t0 := time.Now()
	resp, err := c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(t0).Seconds()}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: data,
		lat: time.Since(t0).Seconds(), err: err}
}

// utilTol is the relative tolerance for level_utilization values (see
// sameResult).
const utilTol = 1e-12

// sameResult compares a response body with its reference payload. Every
// byte must be equal, except that each level_utilization value may
// differ from the reference by a relative utilTol: the simulator sums
// link traffic while ranging over a Go map of flows, so those values
// vary in their last bits from one run of a spec to the next. exact
// reports whether the bodies are byte-identical.
func sameResult(got, ref []byte) (exact bool, err error) {
	if bytes.Equal(got, ref) {
		return true, nil
	}
	g0, g1, gu := utilSpan(got)
	r0, r1, ru := utilSpan(ref)
	if gu == nil || ru == nil || !bytes.Equal(got[:g0], ref[:r0]) || !bytes.Equal(got[g1:], ref[r1:]) {
		return false, fmt.Errorf("body differs from serve.RunOne (%d vs %d bytes)", len(got), len(ref))
	}
	if len(gu) != len(ru) {
		return false, fmt.Errorf("level_utilization has levels %v, serve.RunOne %v", gu, ru)
	}
	for level, r := range ru {
		g, ok := gu[level]
		if !ok || math.Abs(g-r) > utilTol*math.Max(math.Abs(g), math.Abs(r)) {
			return false, fmt.Errorf("level_utilization[%s] = %v, serve.RunOne %v", level, g, r)
		}
	}
	return false, nil
}

// utilSpan finds a body's level_utilization object: its byte range and
// its decoded values, or a nil map if there is none.
func utilSpan(body []byte) (start, end int, util map[string]float64) {
	key := []byte(`"level_utilization":{`)
	start = bytes.Index(body, key)
	if start < 0 {
		return 0, 0, nil
	}
	n := bytes.IndexByte(body[start:], '}')
	if n < 0 {
		return 0, 0, nil
	}
	end = start + n + 1
	if json.Unmarshal(body[start+len(key)-1:end], &util) != nil {
		return 0, 0, nil
	}
	return start, end, util
}

// checkReply checks one response against the spec's reference payload
// (serve.RunOne, compared by sameResult) and the X-Cache outcome its
// kind requires. A pair member only has to be a valid outcome;
// checkPair checks the pair. exact reports a byte-identical body.
func checkReply(r reply, kind byte, ref []byte) (exact bool, err error) {
	if r.err != nil {
		return false, r.err
	}
	if r.status != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if exact, err = sameResult(r.body, ref); err != nil {
		return false, err
	}
	want := map[byte]string{reqHit: "hit", reqMiss: "miss"}[kind]
	if want != "" && r.cache != want {
		return exact, fmt.Errorf("X-Cache %q, want %q", r.cache, want)
	}
	if want == "" && r.cache != "miss" && r.cache != "hit" && r.cache != "coalesced" {
		return exact, fmt.Errorf("X-Cache %q", r.cache)
	}
	return exact, nil
}

// checkPair requires exactly one simulation for a pair: one "miss", and
// the other "coalesced" (it arrived while the leader ran) or "hit" (it
// arrived after the leader stored the result). Both carry the one
// result, so their bodies must be byte-identical.
func checkPair(a, b reply) error {
	if !bytes.Equal(a.body, b.body) {
		return fmt.Errorf("the pair's bodies differ (%d vs %d bytes)", len(a.body), len(b.body))
	}
	x, y := a.cache, b.cache
	if y == "miss" {
		x, y = y, x
	}
	if x != "miss" || (y != "coalesced" && y != "hit") {
		return fmt.Errorf("pair X-Cache %q and %q, want one miss and one coalesced or hit", a.cache, b.cache)
	}
	return nil
}

// runServeMixed posts the sequence from two closed-loop clients to a
// fresh daemon each pass. Set-up (timed per pass) opens a fresh disk
// store, starts the daemon and posts the warmed set; the reference
// payloads are computed once, untimed, before the first pass. As on
// plan-1024, a run makes at least five passes, so that each request's
// median latency over the passes is steady.
func runServeMixed(b *bench) error {
	cfg := network.DefaultConfig()
	ref, err := loadReference()
	if err != nil {
		return err
	}
	mix := serveSequence(b.opts.seed)
	bodies := make([][]byte, len(mix.specs))
	refs, err := referencePayloads(mix.specs, cfg)
	if err != nil {
		return err
	}
	for i, js := range mix.specs {
		if bodies[i], err = json.Marshal(js); err != nil {
			return err
		}
	}
	if err := b.modelCheck(cfg, ref); err != nil {
		return err
	}
	return b.loop(5, func(i int, traced bool) error {
		dir := filepath.Join(b.opts.workDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), i))
		defer os.RemoveAll(dir)
		client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: sweepWorkers}}
		defer client.CloseIdleConnections()
		var (
			d      *daemon
			diskT  *timedStore
			served = make([][]byte, mix.warm) // the warmed set's bodies as the daemon stored them
		)
		defer func() {
			if d != nil {
				d.stop()
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
			for k := 0; k < mix.warm; k++ {
				r := post(client, d.url, bodies[k])
				served[k] = r.body
				b.serveOp(checkReply(r, reqMiss, refs[k]))
			}
			return nil
		}); err != nil {
			return err
		}
		diskT.take()
		before := serveLayers(d.srv)
		b.tr.beginPass(i, traced)
		replies := make([]reply, len(mix.reqs))
		wall, alloc, _ := measure(func() error {
			closedLoop(client, d.url, mix, bodies, replies, b.tr)
			return nil
		})
		lat := make([]float64, len(replies))
		var execS float64
		inexact := 0
		for k, r := range replies {
			lat[k] = r.lat
			rq := mix.reqs[k]
			exact, err := checkReply(r, rq.kind, refs[rq.spec])
			if err == nil && rq.kind == reqHit && !bytes.Equal(r.body, served[rq.spec]) {
				err = fmt.Errorf("hit body differs from the body the daemon stored (%d vs %d bytes)",
					len(r.body), len(served[rq.spec]))
			}
			if err == nil && rq.kind == reqPairB {
				err = checkPair(replies[k-1], r)
			}
			if err != nil {
				err = fmt.Errorf("request %d (%c, %s n=%d %s): %w", k, rq.kind, mix.specs[rq.spec].Algorithm,
					mix.specs[rq.spec].N, mix.specs[rq.spec].Workload, err)
			}
			b.serveOp(exact, err)
			if err == nil && !exact {
				inexact++
			}
			if traced {
				b.layerLat[r.cache] = append(b.layerLat[r.cache], r.lat)
				if r.cache == "miss" {
					execS += r.lat
				}
			}
		}
		b.addPass(passResult{wall: wall, alloc: alloc, lat: lat}, traced)
		if traced {
			L := serveLayers(d.srv)
			for k, v := range before {
				L[k] -= v
			}
			L["sched.exec_s"] = execS
			L["serve.inexact_bodies"] = float64(inexact)
			c, _ := diskT.take()
			storeLayers(L, c, "store.disk")
			b.addLayers(L)
		}
		return nil
	})
}

// closedLoop sends every request of the sequence from sweepWorkers
// clients, each sending its next request only after the previous reply.
// The two posts of a pair go out together: whichever client draws the
// first waits until the other client draws the second.
func closedLoop(c *http.Client, url string, mix serveMix, bodies [][]byte, replies []reply, tr *tracer) {
	gates := make([]chan struct{}, len(mix.reqs))
	for k, rq := range mix.reqs {
		if rq.kind == reqPairA {
			gates[k] = make(chan struct{})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(mix.reqs) {
					return
				}
				rq := mix.reqs[k]
				switch rq.kind {
				case reqPairA:
					<-gates[k]
				case reqPairB:
					close(gates[k-1])
				}
				t0 := time.Now()
				replies[k] = post(c, url, bodies[rq.spec])
				tr.record("serve.request."+replies[k].cache, t0, time.Since(t0))
			}
		}()
	}
	wg.Wait()
}

// serveLayers reads the daemon's registry: its request outcomes and the
// simulation layers of the jobs it ran.
func serveLayers(srv *serve.Server) map[string]float64 {
	reg := srv.Registry()
	L := simLayers(reg)
	L["serve.hits"] = float64(reg.Counter("serve_hits_total").Value())
	L["serve.misses"] = float64(reg.Counter("serve_misses_total").Value())
	L["serve.coalesced"] = float64(reg.Counter("serve_coalesced_total").Value())
	L["serve.rejected"] = float64(reg.Counter("serve_rejected_total").Value())
	return L
}

// referencePayloads runs serve.RunOne for every spec on sweepWorkers
// goroutines: the bytes every response must equal.
func referencePayloads(specs []serve.JobSpec, cfg network.Config) ([][]byte, error) {
	refs := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(specs) {
					return
				}
				refs[k], errs[k] = serve.RunOne(specs[k], cfg)
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for %+v: %w", specs[k], err)
		}
	}
	return refs, nil
}

package main

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sched"
)

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := serveSequence(1), serveSequence(1), serveSequence(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 gave two different serve sequences")
	}
	if reflect.DeepEqual(a.reqs, c.reqs) || reflect.DeepEqual(a.specs, c.specs) {
		t.Error("seeds 1 and 2 gave the same serve sequence")
	}
	p1, p2, p3 := planPatterns(1, []int{64}), planPatterns(1, []int{64}), planPatterns(2, []int{64})
	if !reflect.DeepEqual(p1, p2) {
		t.Error("seed 1 gave two different plan patterns")
	}
	if reflect.DeepEqual(p1, p3) {
		t.Error("seeds 1 and 2 gave the same plan patterns")
	}
}

// TestServeSequenceShape pins the mix: about 80% hits, every fresh spec
// requested once (a pair twice, back to back), every fault profile used.
func TestServeSequenceShape(t *testing.T) {
	mix := serveSequence(7)
	kinds := map[byte]int{}
	seen := map[int]int{}
	for k, rq := range mix.reqs {
		kinds[rq.kind]++
		if rq.kind == reqHit {
			if rq.spec >= mix.warm {
				t.Fatalf("hit %d names fresh spec %d", k, rq.spec)
			}
			continue
		}
		seen[rq.spec]++
		if rq.kind == reqPairB && (mix.reqs[k-1].kind != reqPairA || mix.reqs[k-1].spec != rq.spec) {
			t.Fatalf("pair second half %d does not follow its first half", k)
		}
	}
	if kinds[reqPairA] != mixPairs || kinds[reqPairB] != mixPairs {
		t.Errorf("%d+%d pair requests, want %d each", kinds[reqPairA], kinds[reqPairB], mixPairs)
	}
	fresh := len(mix.specs) - mix.warm
	if len(seen) != fresh || kinds[reqMiss] != fresh-mixPairs {
		t.Errorf("%d fresh specs requested, %d misses; want %d and %d", len(seen), kinds[reqMiss], fresh, fresh-mixPairs)
	}
	if share := float64(kinds[reqHit]) / float64(len(mix.reqs)); share != 0.8 {
		t.Errorf("hit share %v, want 0.8", share)
	}
	faults := map[string]int{}
	for _, js := range mix.specs {
		if err := js.Validate(); err != nil {
			t.Errorf("spec %+v: %v", js, err)
		}
		if js.FaultProfile != "" {
			faults[js.FaultProfile]++
		}
	}
	if len(faults) != len(faultProfiles) {
		t.Errorf("fault profiles used: %v", faults)
	}
}

// TestCorruptedScheduleCountsAsFailed runs plan-1024 at small sizes with
// a planner that drops one transfer of one schedule per pass, and checks
// the run counts exactly those as failed, in failed and ok_ratio.
func TestCorruptedScheduleCountsAsFailed(t *testing.T) {
	corrupt := func(alg string, m pattern.Matrix) (*sched.Schedule, error) {
		s, err := sched.Irregular(alg, m)
		if err == nil && alg == "GS" && m.N() == 32 && len(s.Steps) > 0 {
			last := len(s.Steps) - 1
			if len(s.Steps[last]) > 0 {
				s.Steps[last] = s.Steps[last][1:]
			}
		}
		return s, err
	}
	b := newBench(options{workload: "plan-1024", seed: 3})
	pw := planWorkload{sizes: []int{16, 32}, plan: corrupt}
	if err := pw.run(b); err != nil {
		t.Fatal(err)
	}
	// Each pass has 7 workloads at N=32 planned with GS: 7 corrupted
	// schedules per pass.
	want := 7 * len(b.untraced)
	if b.failed != want {
		t.Fatalf("failed = %d, want %d (failures: %v)", b.failed, want, b.failures)
	}
	for _, m := range b.endToEnd() {
		if m.name == "ok_ratio" {
			if w := float64(b.attempted-want) / float64(b.attempted); m.value != w {
				t.Errorf("ok_ratio = %v, want %v", m.value, w)
			}
		}
	}
	if b.result(b.endToEnd()).Correct {
		t.Error("a run with corrupted schedules reports correct")
	}
}

// TestCorruptedTableCountsAsFailed changes one rendered cell of a sweep
// table: all of the table's cells count as failed.
func TestCorruptedTableCountsAsFailed(t *testing.T) {
	cfg := network.DefaultConfig()
	t11 := exp.Table11Spec(cfg)
	t12, _, err := exp.Table12Spec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []*exp.TableSpec{t11, t12}
	if err := (&exp.Runner{Workers: 2}).Run(context.Background(), specs...); err != nil {
		t.Fatal(err)
	}
	ref, err := referenceOf(specs)
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := checkTables(specs, ref); failed != 0 || err != nil {
		t.Fatalf("clean tables: %d failed, %v", failed, err)
	}
	t11.Table.Cells[0][0] = "0.001"
	failed, err := checkTables(specs, ref)
	if failed != len(t11.Cells) || err == nil {
		t.Errorf("corrupted table 11: %d failed (want %d), %v", failed, len(t11.Cells), err)
	}
}

func TestCheckReply(t *testing.T) {
	body := []byte(`{"result":{"steps":3,"level_utilization":{"0":0.2,"1":0.19649157201854014}}}` + "\n")
	ulp := []byte(`{"result":{"steps":3,"level_utilization":{"0":0.2,"1":0.1964915720185401}}}` + "\n")
	ok := reply{status: http.StatusOK, cache: "hit", body: body}
	cases := []struct {
		name  string
		r     reply
		kind  byte
		want  string // error substring; "" for none
		exact bool
	}{
		{"hit", ok, reqHit, "", true},
		{"last bits of a utilization", reply{status: http.StatusOK, cache: "hit", body: ulp}, reqHit, "", false},
		{"corrupted body", reply{status: http.StatusOK, cache: "hit",
			body: []byte(`{"result":{"steps":4,"level_utilization":{"0":0.2,"1":0.19649157201854014}}}` + "\n")}, reqHit, "body differs", false},
		{"corrupted utilization", reply{status: http.StatusOK, cache: "hit",
			body: []byte(`{"result":{"steps":3,"level_utilization":{"0":0.2,"1":0.1964916}}}` + "\n")}, reqHit, "level_utilization[1]", false},
		{"missing level", reply{status: http.StatusOK, cache: "hit",
			body: []byte(`{"result":{"steps":3,"level_utilization":{"0":0.2}}}` + "\n")}, reqHit, "levels", false},
		{"hit served as miss", reply{status: http.StatusOK, cache: "miss", body: body}, reqHit, `want "hit"`, true},
		{"rejected", reply{status: http.StatusTooManyRequests, body: []byte("busy")}, reqMiss, "status 429", false},
		{"pair member coalesced", reply{status: http.StatusOK, cache: "coalesced", body: body}, reqPairB, "", true},
		{"pair member unknown cache", reply{status: http.StatusOK, cache: "", body: body}, reqPairA, "X-Cache", true},
	}
	for _, tc := range cases {
		exact, err := checkReply(tc.r, tc.kind, body)
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
		if exact != tc.exact {
			t.Errorf("%s: exact = %v, want %v", tc.name, exact, tc.exact)
		}
	}
	miss, hit, co := reply{cache: "miss"}, reply{cache: "hit"}, reply{cache: "coalesced"}
	if checkPair(miss, co) != nil || checkPair(hit, miss) != nil {
		t.Error("a valid pair was rejected")
	}
	if checkPair(miss, miss) == nil || checkPair(co, co) == nil {
		t.Error("a pair with two or no simulations was accepted")
	}
	if checkPair(reply{cache: "miss", body: body}, reply{cache: "coalesced", body: ulp}) == nil {
		t.Error("a pair with two different bodies was accepted")
	}
}

package sched

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/pattern"
)

// TestLinearSchedulingTable7 reproduces the paper's Table 7: the LS
// schedule for pattern P completes in 8 steps, step i delivering into
// processor i.
func TestLinearSchedulingTable7(t *testing.T) {
	p := pattern.PaperP(1)
	s := LS(p)
	if s.NumSteps() != 8 {
		t.Fatalf("LS steps = %d, want 8 (paper Table 7)", s.NumSteps())
	}
	if err := s.CoversPattern(p); err != nil {
		t.Fatal(err)
	}
	// Every transfer in step k delivers into one fixed processor.
	for si, st := range s.Steps {
		dst := st[0].Dst
		for _, tr := range st {
			if tr.Dst != dst {
				t.Fatalf("LS step %d mixes destinations", si)
			}
		}
	}
}

// TestPairwiseSchedulingTable8 reproduces the paper's Table 8: the PS
// schedule for pattern P completes in 6 steps (PEX's step j=2 pairings
// have no traffic under P and are dropped).
func TestPairwiseSchedulingTable8(t *testing.T) {
	p := pattern.PaperP(1)
	s := PS(p)
	if s.NumSteps() != 6 {
		t.Fatalf("PS steps = %d, want 6 (paper Table 8)", s.NumSteps())
	}
	if err := s.CoversPattern(p); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckPairwise(); err != nil {
		t.Fatal(err)
	}
	// First step: the four cluster-neighbor exchanges of PEX step 1.
	checkPairs(t, s.Steps[0], map[[2]int]bool{{0, 1}: true, {2, 3}: true, {4, 5}: true, {6, 7}: true})
}

// TestBalancedSchedulingTable9 reproduces the paper's Table 9: the BS
// schedule for pattern P completes in 7 steps.
func TestBalancedSchedulingTable9(t *testing.T) {
	p := pattern.PaperP(1)
	s := BS(p)
	if s.NumSteps() != 7 {
		t.Fatalf("BS steps = %d, want 7 (paper Table 9)", s.NumSteps())
	}
	if err := s.CoversPattern(p); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckPairwise(); err != nil {
		t.Fatal(err)
	}
}

// TestGreedySchedulingTable10 reproduces the paper's Table 10: the GS
// schedule for pattern P completes in 6 steps — the minimum possible,
// since processor 1 has six distinct communication partners.
func TestGreedySchedulingTable10(t *testing.T) {
	p := pattern.PaperP(1)
	s := GS(p)
	if err := s.CoversPattern(p); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckPairwise(); err != nil {
		t.Fatal(err)
	}
	if s.NumSteps() != 6 {
		t.Fatalf("GS steps = %d, want 6 (paper Table 10)\n%s", s.NumSteps(), s.Table())
	}
}

func TestGSCompleteExchangeMatchesPairwiseStepCount(t *testing.T) {
	// Paper Section 4.4: "For a complete exchange operation this
	// algorithm creates the same communication schedule as pairwise
	// exchange" — N-1 steps, every node paired every step.
	for _, n := range []int{4, 8, 16} {
		p := pattern.CompleteExchange(n, 64)
		s := GS(p)
		if s.NumSteps() != n-1 {
			t.Fatalf("GS complete exchange on %d: %d steps, want %d", n, s.NumSteps(), n-1)
		}
		if err := s.CoversPattern(p); err != nil {
			t.Fatal(err)
		}
		for si, st := range s.Steps {
			if len(st) != n {
				t.Fatalf("GS step %d has %d transfers, want %d (all nodes paired)", si, len(st), n)
			}
		}
	}
}

func TestIrregularSchedulersEmptyPattern(t *testing.T) {
	p := pattern.New(8)
	for _, s := range []*Schedule{LS(p), PS(p), BS(p), GS(p)} {
		if s.NumSteps() != 0 {
			t.Fatalf("%s schedules %d steps for empty pattern", s.Algorithm, s.NumSteps())
		}
	}
}

func TestIrregularSchedulersSingleMessage(t *testing.T) {
	p := pattern.New(8)
	p[3][6] = 100
	for _, s := range []*Schedule{LS(p), PS(p), BS(p), GS(p)} {
		if s.NumSteps() != 1 || s.Messages() != 1 {
			t.Fatalf("%s: steps=%d msgs=%d, want 1/1", s.Algorithm, s.NumSteps(), s.Messages())
		}
		if err := s.CoversPattern(p); err != nil {
			t.Fatalf("%s: %v", s.Algorithm, err)
		}
	}
}

func TestGSNeverWorseThanMessagesBound(t *testing.T) {
	// Each GS step moves at least one message, so steps <= messages; and
	// steps >= the max number of distinct partners over nodes.
	p := pattern.Synthetic(16, 0.4, 64, 99)
	s := GS(p)
	if s.NumSteps() > p.Messages() {
		t.Fatalf("GS took %d steps for %d messages", s.NumSteps(), p.Messages())
	}
	maxPartners := 0
	for i := 0; i < 16; i++ {
		set := map[int]bool{}
		for j := 0; j < 16; j++ {
			if p[i][j] > 0 || p[j][i] > 0 {
				set[j] = true
			}
		}
		if len(set) > maxPartners {
			maxPartners = len(set)
		}
	}
	if s.NumSteps() < maxPartners {
		t.Fatalf("GS %d steps below partner bound %d — coverage must be broken", s.NumSteps(), maxPartners)
	}
}

func TestGSWithRandomTieBreakStillCovers(t *testing.T) {
	p := pattern.Synthetic(16, 0.5, 128, 5)
	for seed := int64(0); seed < 5; seed++ {
		s := GSWith(p, GSOptions{RandomTieBreak: true, Seed: seed})
		if err := s.CoversPattern(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.CheckPairwise(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestIrregularDispatcher(t *testing.T) {
	p := pattern.PaperP(64)
	for _, alg := range []string{"LS", "PS", "BS", "GS"} {
		s, err := Irregular(alg, p)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if s.Algorithm != alg {
			t.Fatalf("algorithm = %q, want %q", s.Algorithm, alg)
		}
	}
	if _, err := Irregular("XX", p); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

// Property: all four irregular schedulers cover arbitrary synthetic
// patterns exactly, and the pairwise ones respect one-partner-per-step.
func TestQuickIrregularCoverage(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		d := float64(dRaw%101) / 100
		p := pattern.Synthetic(8, d, 32, seed)
		for _, s := range []*Schedule{LS(p), PS(p), BS(p), GS(p)} {
			if s.CoversPattern(p) != nil || s.Validate() != nil {
				return false
			}
		}
		for _, s := range []*Schedule{PS(p), BS(p), GS(p)} {
			if s.CheckPairwise() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: GS never needs more steps than PS or BS need non-empty steps
// + a small slack... in fact the paper observes GS <= PS/BS below 50%
// density. Here we assert the hard invariants only: GS steps are bounded
// by N-1 when the pattern is a subset of complete exchange with
// symmetric shape... that is not guaranteed for asymmetric patterns, so
// bound by messages instead.
func TestQuickGSStepBound(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		d := float64(dRaw%101) / 100
		p := pattern.Synthetic(8, d, 16, seed)
		s := GS(p)
		if p.Messages() == 0 {
			return s.NumSteps() == 0
		}
		return s.NumSteps() >= 1 && s.NumSteps() <= p.Messages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidPatternsReturnErrors feeds the three malformed patterns
// pattern.Validate rejects to every irregular algorithm, through the
// planning path (Irregular, or Plan for the auxiliary entries) and
// Execute: each must return Validate's error, never panic or spin.
func TestInvalidPatternsReturnErrors(t *testing.T) {
	diagonal := pattern.PaperP(8)
	diagonal[3][3] = 5
	ragged := pattern.PaperP(8)
	ragged[5] = ragged[5][:6]
	negative := pattern.PaperP(8)
	negative[2][6] = -1
	cases := []struct {
		name string
		m    pattern.Matrix
		want string
	}{
		{"diagonal", diagonal, "nonzero diagonal [3][3]"},
		{"ragged", ragged, "row 5 has 6 columns"},
		{"negative", negative, "negative entry [2][6]"},
	}
	cfg := network.DefaultConfig()
	for _, c := range cases {
		for _, alg := range []string{"LS", "PS", "BS", "GS", "GSR", "AS", "CRYSTAL"} {
			inf, err := Lookup(alg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(path string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s %s via %s: err = %v, want %q", c.name, alg, path, err, c.want)
				}
			}
			if inf.plan != nil {
				if inf.Aux {
					_, err = inf.Plan(Request{Pattern: c.m})
				} else {
					_, err = Irregular(alg, c.m)
				}
				check("plan", err)
			}
			_, err = inf.Execute(Request{Pattern: c.m, Cfg: cfg})
			check("Execute", err)
		}
	}
}

package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/pattern"
)

// The dense planners below are the straightforward N²-per-step
// transcriptions of the paper's LS/PS/BS/GS (and AS's initial transfer
// list) that the message-index planners replaced. They are kept here as
// the differential oracle: every production planner must return a
// schedule reflect.DeepEqual to its dense twin.

func denseLS(m pattern.Matrix) *Schedule {
	n := m.N()
	s := &Schedule{Algorithm: "LS", N: n}
	for i := 0; i < n; i++ {
		var st Step
		for j := 0; j < n; j++ {
			if j != i && m[j][i] > 0 {
				st = append(st, Transfer{Src: j, Dst: i, Bytes: m[j][i]})
			}
		}
		if len(st) > 0 {
			s.Steps = append(s.Steps, st)
		}
	}
	return s
}

func densePS(m pattern.Matrix) *Schedule {
	return densePaired(m, "PS", func(lo, j, n int) int { return PEXPartner(lo, j) })
}

func denseBS(m pattern.Matrix) *Schedule {
	return densePaired(m, "BS", func(lo, j, n int) int { return BEXPartner(lo, j, n) })
}

func densePaired(m pattern.Matrix, name string, partner func(lo, j, n int) int) *Schedule {
	n := m.N()
	checkN(n)
	s := &Schedule{Algorithm: name, N: n}
	for j := 1; j < n; j++ {
		var st Step
		for lo := 0; lo < n; lo++ {
			hi := partner(lo, j, n)
			if lo >= hi {
				continue
			}
			if m[hi][lo] > 0 {
				st = append(st, Transfer{Src: hi, Dst: lo, Bytes: m[hi][lo]})
			}
			if m[lo][hi] > 0 {
				st = append(st, Transfer{Src: lo, Dst: hi, Bytes: m[lo][hi]})
			}
		}
		if len(st) > 0 {
			s.Steps = append(s.Steps, st)
		}
	}
	return s
}

func denseGSWith(m pattern.Matrix, opts GSOptions) *Schedule {
	n := m.N()
	s := &Schedule{Algorithm: "GS", N: n}
	need := m.Clone()
	remaining := need.Messages()
	var rng *rand.Rand
	if opts.RandomTieBreak {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	guard := 0
	for remaining > 0 {
		guard++
		if guard > n*n+n {
			panic(fmt.Sprintf("dense GS failed to converge with %d messages left", remaining))
		}
		avail := make([]bool, n)
		for i := range avail {
			avail[i] = true
		}
		var st Step
		for i := 0; i < n; i++ {
			if !avail[i] {
				continue
			}
			j := denseGSPick(need, avail, i, rng)
			if j < 0 {
				continue
			}
			st = append(st, Transfer{Src: i, Dst: j, Bytes: need[i][j]})
			need[i][j] = 0
			remaining--
			if need[j][i] > 0 {
				st = append(st, Transfer{Src: j, Dst: i, Bytes: need[j][i]})
				need[j][i] = 0
				remaining--
			}
			avail[i], avail[j] = false, false
		}
		if len(st) > 0 {
			s.Steps = append(s.Steps, st)
		}
	}
	return s
}

func denseGSPick(need pattern.Matrix, avail []bool, i int, rng *rand.Rand) int {
	n := need.N()
	var candidates []int
	for off := 1; off < n; off++ {
		j := (i + off) % n
		if !avail[j] || need[i][j] == 0 {
			continue
		}
		if rng == nil {
			return j
		}
		candidates = append(candidates, j)
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[rng.Intn(len(candidates))]
}

// denseRemaining is AS's initial transfer list: every message in
// row-major order.
func denseRemaining(m pattern.Matrix) []Transfer {
	var out []Transfer
	for i := range m {
		for j := range m[i] {
			if m[i][j] > 0 {
				out = append(out, Transfer{Src: i, Dst: j, Bytes: m[i][j]})
			}
		}
	}
	return out
}

// gsrSeeds are the tie-break seeds every differential check runs GSR with.
var gsrSeeds = []int64{0, 1, 7, 42}

// diffPlanners compares every index planner with its dense oracle on m
// (N a power of two), and checks each schedule is well formed and moves
// exactly the pattern. It returns the first failure.
func diffPlanners(m pattern.Matrix, seeds []int64) error {
	pairs := []struct {
		name      string
		got, want *Schedule
	}{
		{"LS", LS(m), denseLS(m)},
		{"PS", PS(m), densePS(m)},
		{"BS", BS(m), denseBS(m)},
		{"GS", GS(m), denseGSWith(m, GSOptions{})},
	}
	for _, seed := range seeds {
		opts := GSOptions{RandomTieBreak: true, Seed: seed}
		pairs = append(pairs, struct {
			name      string
			got, want *Schedule
		}{fmt.Sprintf("GSR seed %d", seed), GSWith(m, opts), denseGSWith(m, opts)})
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.got, p.want) {
			return fmt.Errorf("%s differs from the dense oracle:\ngot  %v\nwant %v", p.name, p.got.Steps, p.want.Steps)
		}
		if err := p.got.Validate(); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if err := p.got.CoversPattern(m); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	ad, err := newAdaptivePlanner(m, network.Config{})
	if err != nil {
		return err
	}
	if want := denseRemaining(m); len(ad.remaining)+len(want) > 0 && !reflect.DeepEqual(ad.remaining, want) {
		return fmt.Errorf("AS initial transfers differ from the dense oracle:\ngot  %v\nwant %v", ad.remaining, want)
	}
	return nil
}

// TestPlannersMatchDenseOracleCatalogue runs every catalogue workload
// through both planner families up to N=1024. The dense GS oracle on
// hotspot at N=1024 costs seconds, so -short stops at N=256 and GSR
// runs up to N=256 only.
func TestPlannersMatchDenseOracleCatalogue(t *testing.T) {
	sizes := []int{2, 4, 16, 64, 256, 1024}
	if testing.Short() {
		sizes = sizes[:5]
	}
	for _, n := range sizes {
		seeds := gsrSeeds
		if n > 256 {
			seeds = nil
		}
		for _, w := range pattern.Workloads() {
			m := w.Gen(n, 64+n, int64(n))
			if err := diffPlanners(m, seeds); err != nil {
				t.Fatalf("%s N=%d: %v", w.Name, n, err)
			}
		}
	}
}

// TestPlannersMatchDenseOracleRandom covers 336 seeded random matrices:
// every power-of-two N up to 64 at densities spanning 0 to 1, with
// varied message sizes.
func TestPlannersMatchDenseOracleRandom(t *testing.T) {
	count := 0
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		for k := 0; k < 56; k++ {
			density := float64(k%11) / 10
			seed := int64(1000*n + k)
			m := pattern.SyntheticVariable(n, density, 1, 4096, seed)
			if err := diffPlanners(m, gsrSeeds); err != nil {
				t.Fatalf("N=%d density=%.1f seed=%d: %v", n, density, seed, err)
			}
			count++
		}
	}
	if count < 300 {
		t.Fatalf("only %d random matrices checked", count)
	}
}

// fuzzMatrix turns fuzz bytes into a square matrix: the first byte picks
// N among 2, 4, 8, 16 and 32, and each following byte fills the next
// off-diagonal cell in row-major order (zero below 128, a positive size
// otherwise; cells past the input stay zero).
func fuzzMatrix(data []byte) pattern.Matrix {
	if len(data) == 0 {
		return pattern.New(2)
	}
	n := 2 << (data[0] % 5)
	m := pattern.New(n)
	k := 1
	for i := 0; i < n && k < len(data); i++ {
		for j := 0; j < n && k < len(data); j++ {
			if i == j {
				continue
			}
			if b := data[k]; b >= 128 {
				m[i][j] = int(b-127) * 8
			}
			k++
		}
	}
	return m
}

// FuzzIrregularPlanners checks the index planners against their dense
// oracles on fuzz-built matrices, and that each schedule is well formed
// and moves exactly the pattern. Run it with `make fuzz-smoke`.
func FuzzIrregularPlanners(f *testing.F) {
	f.Add([]byte{1, 200, 0, 255, 128, 3, 190})
	f.Add([]byte{0, 255, 255})
	f.Add([]byte{4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := diffPlanners(fuzzMatrix(data), gsrSeeds[:2]); err != nil {
			t.Fatal(err)
		}
	})
}

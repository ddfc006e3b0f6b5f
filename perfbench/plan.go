package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// planInput is one pattern plan-1024 schedules with every irregular
// scheduler.
type planInput struct {
	workload string
	p        pattern.Matrix
}

// planPatterns generates the workload catalogue at each size from seed:
// seeded message sizes and permutation seed, and a seeded rotation of
// the processor numbering (a different placement of the same
// communication). A rotation keeps every processor's distance to its
// partners, so GS, whose cost follows those distances, costs the same
// for every seed; an arbitrary relabelling would not.
func planPatterns(seed int64, sizes []int) []planInput {
	rng := rand.New(rand.NewSource(seed))
	var out []planInput
	for _, n := range sizes {
		for _, w := range pattern.Workloads() {
			base := w.Gen(n, 64<<rng.Intn(6), rng.Int63())
			rot := rng.Intn(n)
			p := pattern.New(n)
			for i, row := range base {
				for j, v := range row {
					p[(i+rot)%n][(j+rot)%n] = v
				}
			}
			out = append(out, planInput{workload: w.Name, p: p})
		}
	}
	return out
}

// checkSchedule is plan-1024's output check.
func checkSchedule(s *sched.Schedule, p pattern.Matrix) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return s.CoversPattern(p)
}

// planWorkload is the plan-1024 workload. plan is the planner under
// test (sched.Irregular; tests substitute a faulty one).
type planWorkload struct {
	sizes []int
	plan  func(alg string, m pattern.Matrix) (*sched.Schedule, error)
}

func runPlan(b *bench) error {
	return planWorkload{sizes: []int{256, 512, 1024}, plan: sched.Irregular}.run(b)
}

// run plans every pattern with LS, PS, BS and GS serially each pass.
// Set-up (timed per pass) generates the patterns; only planning is
// measured, and every schedule is checked after the pass. A run makes
// at least three passes, so each schedule's latency is a median.
func (pw planWorkload) run(b *bench) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	if err := b.modelCheck(network.DefaultConfig(), ref); err != nil {
		return err
	}
	return b.loop(3, func(i int, traced bool) error {
		var inputs []planInput
		b.timeSetup(func() error {
			inputs = planPatterns(b.opts.seed, pw.sizes)
			return nil
		})
		b.tr.beginPass(i, traced)
		type planned struct {
			s   *sched.Schedule
			err error
		}
		out := make([]planned, 0, len(inputs)*len(irregularAlgs))
		var lat []float64
		L := map[string]float64{}
		wall, alloc, _ := measure(func() error {
			for _, in := range inputs {
				for _, alg := range irregularAlgs {
					t0 := time.Now()
					s, err := pw.plan(alg, in.p)
					d := time.Since(t0)
					b.tr.record("sched.plan."+alg, t0, d)
					lat = append(lat, d.Seconds())
					L["sched.plan_s."+alg] += d.Seconds()
					out = append(out, planned{s, err})
				}
			}
			return nil
		})
		k := 0
		for _, in := range inputs {
			for _, alg := range irregularAlgs {
				o := out[k]
				k++
				err := o.err
				if err == nil {
					err = checkSchedule(o.s, in.p)
					L["sched.steps"] += float64(o.s.NumSteps())
				}
				if err != nil {
					err = fmt.Errorf("%s on %s N=%d: %w", alg, in.workload, in.p.N(), err)
				}
				b.op(err)
			}
		}
		b.addPass(passResult{wall: wall, alloc: alloc, lat: lat}, traced)
		if traced {
			L["sched.plan_s"] = sum(lat)
			L["sched.plans"] = float64(len(lat))
			b.addLayers(L)
		}
		return nil
	})
}

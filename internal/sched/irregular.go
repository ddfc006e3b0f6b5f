package sched

import (
	"math/rand"
	"sort"

	"repro/internal/pattern"
)

// LS builds the Linear Scheduling schedule for an irregular pattern
// (paper Section 4.1, Table 7): linear exchange restricted to the
// messages the communication matrix requires. In step i the processors
// with data for processor i send it; everyone else is idle. Steps with no
// communication are dropped.
//
// Cost: one O(N²) indexing of the matrix, then O(messages): step i is
// processor i's in-list. LS panics on a matrix that fails
// pattern.Validate; Irregular returns the error instead.
func LS(m pattern.Matrix) *Schedule { return planLS(mustIndex(m)) }

func planLS(x *msgIndex) *Schedule {
	s := &Schedule{Algorithm: "LS", N: x.n}
	trs := make([]Transfer, 0, x.msgs)
	for i := 0; i < x.n; i++ {
		from := len(trs)
		for _, j := range x.ins(i) {
			trs = append(trs, Transfer{Src: j, Dst: i, Bytes: x.m[j][i]})
		}
		if len(trs) > from {
			s.Steps = append(s.Steps, trs[from:len(trs):len(trs)])
		}
	}
	return s
}

// PS builds the Pairwise Scheduling schedule (paper Section 4.2,
// Table 8): pairwise-exchange pairings, with each pair performing an
// exchange, a single send, or nothing, according to the communication
// matrix. Empty steps are dropped (the paper's pattern P completes in 6
// steps rather than PEX's 7).
//
// Cost: one O(N²) indexing of the matrix, then O(messages + N). PS
// panics on a matrix that fails pattern.Validate or whose size is not a
// power of two; Irregular returns an error instead.
func PS(m pattern.Matrix) *Schedule { return planPS(mustIndex(m)) }

func planPS(x *msgIndex) *Schedule {
	return planPaired(x, "PS", func(p int) int { return p })
}

// BS builds the Balanced Scheduling schedule (paper Section 4.3,
// Table 9): the balanced-exchange pairings filtered by the communication
// matrix. Its cost and panics are PS's.
func BS(m pattern.Matrix) *Schedule { return planBS(mustIndex(m)) }

func planBS(x *msgIndex) *Schedule {
	n := x.n
	return planPaired(x, "BS", func(p int) int { return (p + 1) % n })
}

// planPaired filters the exchange whose step j pairs the processors
// with virtual numbers v(p) and v(p)^j (PEX: v(p) = p; BEX: v(p) =
// (p+1) mod N). Each pair {lo, hi} therefore meets in exactly one step,
// j = v(lo)^v(hi), so every transfer is bucketed straight into its step
// instead of scanning all N pairings of every step. Walking lo in
// ascending order, and lo's in-list before its out-list, fills each
// bucket in the exchange's order: pairs by ascending lo, and [hi->lo,
// lo->hi] within a pair, so the lower rank receives first.
func planPaired(x *msgIndex, name string, v func(p int) int) *Schedule {
	n := x.n
	checkN(n)
	// at[j] counts, then offsets, bucket j's transfers in trs.
	at := make([]int, n+1)
	walk := func(put func(j int, tr Transfer)) {
		for lo := 0; lo < n; lo++ {
			for _, hi := range x.ins(lo) {
				if hi > lo {
					put(v(lo)^v(hi), Transfer{Src: hi, Dst: lo, Bytes: x.m[hi][lo]})
				}
			}
			for _, hi := range x.outs(lo) {
				if hi > lo {
					put(v(lo)^v(hi), Transfer{Src: lo, Dst: hi, Bytes: x.m[lo][hi]})
				}
			}
		}
	}
	walk(func(j int, _ Transfer) { at[j+1]++ })
	for j := 1; j <= n; j++ {
		at[j] += at[j-1]
	}
	trs := make([]Transfer, x.msgs)
	next := append([]int(nil), at[:n]...)
	walk(func(j int, tr Transfer) {
		trs[next[j]] = tr
		next[j]++
	})
	s := &Schedule{Algorithm: name, N: n}
	for j := 1; j < n; j++ {
		if lo, hi := at[j], at[j+1]; hi > lo {
			s.Steps = append(s.Steps, trs[lo:hi:hi])
		}
	}
	return s
}

// GSOptions tunes the greedy scheduler.
type GSOptions struct {
	// RandomTieBreak selects candidate partners pseudo-randomly (seeded
	// by Seed) instead of the deterministic next-available scan. Used by
	// the ablation study.
	RandomTieBreak bool
	Seed           int64
}

// GS builds the Greedy Scheduling schedule (paper Section 4.4,
// Figure 12, Table 10) with default options.
func GS(m pattern.Matrix) *Schedule { return GSWith(m, GSOptions{}) }

// GSWith runs the greedy matching of Figure 12: in each iteration every
// processor, in rank order, grabs the next available processor it still
// has to send to; if that partner also has data queued in return, the
// pair performs an exchange. Matched processors are unavailable for the
// rest of the iteration. Iterations repeat until no messages remain.
//
// For a complete exchange this degenerates to pairwise exchange; for
// sparse patterns it usually needs fewer steps than PS/BS because idle
// pairings are never scheduled.
//
// Cost: one O(N²) indexing of the matrix, then work at most
// proportional to messages × iterations, since each sender scans only
// its own unsent destinations and an iteration stops once no available
// processor has anything left to receive.
//
// GSWith panics on a matrix that fails pattern.Validate; Irregular and
// the GSR registry entry return the error instead.
func GSWith(m pattern.Matrix, opts GSOptions) *Schedule {
	return planGS(mustIndex(m), opts)
}

// greedy is the state of one GS run over a message index.
type greedy struct {
	x   *msgIndex
	rng *rand.Rand // nil: deterministic next-available scan
	trs []Transfer // every scheduled transfer, steps in order
	// pend[head[i]:x.outAt[i+1]] is sender i's pending list: its
	// destinations in the cyclic order i+1, i+2, ..., i-1 that Figure
	// 12's scan visits. Sent destinations leave it lazily, when a scan
	// passes them.
	pend, head []int
	sent       []uint64 // bit i*N+j: message i->j has been scheduled
	inLeft     []int    // messages still to be scheduled into each processor
	receivers  int      // processors with inLeft > 0
	busy       []int    // busy[p] == round: p is matched this iteration
	round      int
	cand       []int // RandomTieBreak's candidate buffer
}

func planGS(x *msgIndex, opts GSOptions) *Schedule {
	n := x.n
	g := &greedy{
		x:      x,
		trs:    make([]Transfer, 0, x.msgs),
		pend:   make([]int, x.msgs),
		head:   append([]int(nil), x.outAt[:n]...),
		sent:   make([]uint64, (n*n+63)/64),
		inLeft: make([]int, n),
		busy:   make([]int, n),
	}
	if opts.RandomTieBreak {
		g.rng = rand.New(rand.NewSource(opts.Seed))
	}
	for i := 0; i < n; i++ {
		dst := x.outs(i)
		up := sort.SearchInts(dst, i) // destinations above i come first
		k := copy(g.pend[x.outAt[i]:], dst[up:])
		copy(g.pend[x.outAt[i]+k:], dst[:up])
		if g.inLeft[i] = len(x.ins(i)); g.inLeft[i] > 0 {
			g.receivers++
		}
	}
	s := &Schedule{Algorithm: "GS", N: n}
	// Every iteration schedules at least one message: all processors
	// start it available, so the lowest-ranked sender with a pending
	// message always matches. An iteration ends early once no available
	// processor has a message left to receive: no later sender could
	// match, so skipping them changes neither the schedule nor the rng.
	lowest := 0 // senders below lowest have nothing left to send
	for len(g.trs) < x.msgs {
		g.round++
		from := len(g.trs)
		for g.head[lowest] == x.outAt[lowest+1] {
			lowest++
		}
		free := g.receivers // available processors with messages to receive
		for i := lowest; i < n && free > 0; i++ {
			if g.busy[i] == g.round || g.head[i] == x.outAt[i+1] {
				continue
			}
			j := g.pick(i)
			if j < 0 {
				continue
			}
			for _, p := range [2]int{i, j} {
				if g.inLeft[p] > 0 {
					free--
				}
				g.busy[p] = g.round
			}
			g.send(i, j)
			if x.m[j][i] > 0 && !g.isSent(j, i) {
				g.send(j, i)
			}
		}
		s.Steps = append(s.Steps, g.trs[from:len(g.trs):len(g.trs)])
	}
	return s
}

// send schedules message i->j in the current iteration.
func (g *greedy) send(i, j int) {
	g.trs = append(g.trs, Transfer{Src: i, Dst: j, Bytes: g.x.m[i][j]})
	b := i*g.x.n + j
	g.sent[b>>6] |= 1 << (b & 63)
	if g.inLeft[j]--; g.inLeft[j] == 0 {
		g.receivers--
	}
}

// pick selects the destination sender i matches this iteration: the
// first unsent, available one in its cyclic order, or under
// RandomTieBreak a seeded pick among all of them. It returns -1 when
// there is none. The ascending cyclic scan makes GS reduce to the
// round-robin pairwise schedule on a complete exchange, the equivalence
// the paper notes in Section 4.4.
func (g *greedy) pick(i int) int {
	lo, stop := g.head[i], g.x.outAt[i+1]
	j := -1
	g.cand = g.cand[:0]
	for k := lo; k < stop; k++ {
		d := g.pend[k]
		if g.isSent(i, d) || g.busy[d] == g.round {
			continue
		}
		if g.rng == nil {
			j, stop = d, k+1
			break
		}
		g.cand = append(g.cand, d)
	}
	if len(g.cand) > 0 {
		j = g.cand[g.rng.Intn(len(g.cand))]
	}
	// Compact the scanned part of the list: its destinations still to
	// send (the pick is about to be sent) move, in order, to its end,
	// and the head follows them.
	w := stop
	for k := stop - 1; k >= lo; k-- {
		if d := g.pend[k]; d != j && !g.isSent(i, d) {
			w--
			g.pend[w] = d
		}
	}
	g.head[i] = w
	return j
}

func (g *greedy) isSent(i, j int) bool {
	b := i*g.x.n + j
	return g.sent[b>>6]&(1<<(b&63)) != 0
}

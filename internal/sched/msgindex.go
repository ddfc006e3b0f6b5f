package sched

import (
	"fmt"

	"repro/internal/pattern"
)

// msgIndex is the sparse view of a communication matrix that the
// irregular planners (LS, PS, BS, GS and AS) share: every processor's
// out-list (destinations, ascending) and in-list (sources, ascending).
// Building it is the planners' only O(N²) work; each then costs time
// proportional to the messages it places rather than N² per step.
type msgIndex struct {
	m    pattern.Matrix
	n    int
	msgs int // nonzero entries of m
	// out[outAt[i]:outAt[i+1]] holds i's destinations and
	// in[inAt[j]:inAt[j+1]] j's sources; out and in share one backing
	// array of exactly 2*msgs entries.
	out, in     []int
	outAt, inAt []int
}

// newMsgIndex indexes m row-major: a count pass, which also makes
// pattern.Validate's checks, then a fill pass into the exactly sized
// backing array. Row-major filling leaves every list ascending, and the
// fill pass reads each row only between its first and last message.
// A matrix that fails validation yields pattern.Validate's error.
func newMsgIndex(m pattern.Matrix) (*msgIndex, error) {
	n := m.N()
	x := &msgIndex{m: m, n: n, outAt: make([]int, n+1), inAt: make([]int, n+1)}
	span := make([][2]int, n) // row i's messages lie in columns [span[i][0], span[i][1])
	for i, row := range m {
		if len(row) != n || row[i] != 0 {
			return nil, validatePattern(m)
		}
		for j := 0; j < n; j++ {
			// Skip zero runs eight cells at a time: most rows are sparse.
			if j+8 <= n {
				if w := row[j : j+8 : j+8]; w[0]|w[1]|w[2]|w[3]|w[4]|w[5]|w[6]|w[7] == 0 {
					j += 7
					continue
				}
			}
			v := row[j]
			if v == 0 {
				continue
			}
			if v < 0 {
				return nil, validatePattern(m)
			}
			if x.outAt[i+1] == 0 {
				span[i][0] = j
			}
			span[i][1] = j + 1
			x.outAt[i+1]++
			x.inAt[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		x.outAt[i+1] += x.outAt[i]
		x.inAt[i+1] += x.inAt[i]
	}
	x.msgs = x.outAt[n]
	backing := make([]int, 2*x.msgs)
	x.out, x.in = backing[:x.msgs:x.msgs], backing[x.msgs:]
	next := append([]int(nil), x.inAt[:n]...)
	k := 0
	for i, row := range m {
		for j := span[i][0]; j < span[i][1]; j++ {
			if row[j] > 0 {
				x.out[k] = j
				k++
				x.in[next[j]] = i
				next[j]++
			}
		}
	}
	return x, nil
}

// validatePattern returns pattern.Validate's error, if any, wrapped for
// the scheduler. The index pass calls it only once it has found a
// fault, so a valid matrix is never scanned twice.
func validatePattern(m pattern.Matrix) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("sched: invalid pattern: %w", err)
	}
	return nil
}

// mustIndex is newMsgIndex for the planners' panicking entry points
// (LS, PS, BS, GSWith); the registry returns the error instead.
func mustIndex(m pattern.Matrix) *msgIndex {
	x, err := newMsgIndex(m)
	if err != nil {
		panic(err)
	}
	return x
}

// outs returns i's destinations, ascending.
func (x *msgIndex) outs(i int) []int { return x.out[x.outAt[i]:x.outAt[i+1]] }

// ins returns j's sources, ascending.
func (x *msgIndex) ins(j int) []int { return x.in[x.inAt[j]:x.inAt[j+1]] }

// indexed adapts an index-based planner to the registry's plan hook:
// the index pass doubles as the pattern's validation.
func indexed(plan func(*msgIndex) *Schedule) func(Request) (*Schedule, error) {
	return func(r Request) (*Schedule, error) {
		x, err := newMsgIndex(r.Pattern)
		if err != nil {
			return nil, err
		}
		return plan(x), nil
	}
}

package sched

import (
	"fmt"

	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// crystalHeaderBytes is the per-message routing header the crystal
// router carries for each forwarded item (origin, destination, length).
const crystalHeaderBytes = 8

// RunCrystalRouter executes an irregular communication pattern with the
// crystal router of Fox et al. (Solving Problems on Concurrent
// Processors, 1988) — the hypercube store-and-forward baseline the paper
// cites for dynamic message scheduling (Section 4).
//
// In dimension-order rounds d = lg N - 1 .. 0, every node combines all
// messages it holds (original or forwarded) whose destination differs
// from it in bit d into one packet train and exchanges it with its
// dimension-d neighbor. After lg N rounds every message has arrived.
// Like REX, it trades per-message overhead (only lg N exchanges per
// node) for forwarded bytes and pack/unpack work — a trade that loses to
// the paper's direct schedulers on sparse patterns.
func RunCrystalRouter(p pattern.Matrix, cfg network.Config) (sim.Time, error) {
	n := p.N()
	if n < 2 || n&(n-1) != 0 {
		return 0, fmt.Errorf("sched: crystal router needs a power-of-two machine, got %d", n)
	}
	m, err := cmmd.NewMachine(n, cfg)
	if err != nil {
		return 0, err
	}
	return runCrystalOn(m, p)
}

// runCrystalOn executes the crystal router on an existing (un-run)
// machine, so callers can attach tracing or observers first.
func runCrystalOn(m *cmmd.Machine, p pattern.Matrix) (sim.Time, error) {
	if err := validatePattern(p); err != nil {
		return 0, err
	}
	n := p.N()
	delivered := make([][]int, n) // delivered[dst] = bytes received per origin
	for i := range delivered {
		delivered[i] = make([]int, n)
	}
	dur, err := m.Run(func(node *cmmd.Node) {
		me := node.ID()
		var items []crystalItem
		for dst := 0; dst < n; dst++ {
			if p[me][dst] > 0 {
				items = append(items, crystalItem{origin: me, dest: dst, bytes: p[me][dst]})
			}
		}
		for d := LgN(n) - 1; d >= 0; d-- {
			peer := me ^ (1 << uint(d))
			var keep []crystalItem
			sendBytes := 0
			for _, it := range items {
				if (it.dest>>uint(d))&1 != (me>>uint(d))&1 {
					sendBytes += it.bytes + crystalHeaderBytes
				} else {
					keep = append(keep, it)
				}
			}
			node.MemCopy(sendBytes) // pack the outgoing train
			if me < peer {
				node.Recv(peer, d)
				node.SendN(peer, d, sendBytes)
			} else {
				node.SendN(peer, d, sendBytes)
				node.Recv(peer, d)
			}
			// The incoming train is the peer's crossing set for this
			// round; reconstruct it from the global pattern (host-side
			// bookkeeping; the simulated cost is the transfer above plus
			// this unpack copy).
			incoming := crystalCrossing(p, peer, d, n)
			inBytes := 0
			for _, it := range incoming {
				inBytes += it.bytes + crystalHeaderBytes
			}
			node.MemCopy(inBytes) // unpack
			items = append(keep, incoming...)
		}
		for _, it := range items {
			if it.dest != me {
				panic(fmt.Sprintf("sched: crystal router stranded %d->%d at %d", it.origin, it.dest, me))
			}
			delivered[me][it.origin] = it.bytes
		}
	})
	if err != nil {
		return 0, err
	}
	// Verify every message arrived intact.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if p[src][dst] > 0 && delivered[dst][src] != p[src][dst] {
				return 0, fmt.Errorf("sched: crystal router delivered %d of %d bytes for %d->%d",
					delivered[dst][src], p[src][dst], src, dst)
			}
		}
	}
	return dur, nil
}

// crystalCrossing reconstructs the item set node `owner` holds just
// before round d that must cross dimension d. This mirrors the routing
// recursion: a message origin->dest is held at round d by the node whose
// low bits (below the dimensions already routed) match origin and whose
// high routed bits match dest.

// crystalItem is one routed message inside a combined train.
type crystalItem struct{ origin, dest, bytes int }

func crystalCrossing(p pattern.Matrix, owner, d, n int) []crystalItem {
	var out []crystalItem
	lg := LgN(n)
	// Bits lg-1 .. d+1 have been routed: owner's those bits equal the
	// destination's; bits d..0 still equal the origin's.
	highMask := 0
	for b := d + 1; b < lg; b++ {
		highMask |= 1 << uint(b)
	}
	lowMask := (1 << uint(d+1)) - 1
	for src := 0; src < n; src++ {
		if src&lowMask != owner&lowMask {
			continue
		}
		for dst := 0; dst < n; dst++ {
			if p[src][dst] == 0 {
				continue
			}
			if dst&highMask != owner&highMask {
				continue
			}
			if (dst>>uint(d))&1 == (owner>>uint(d))&1 {
				continue // does not cross this round
			}
			out = append(out, crystalItem{src, dst, p[src][dst]})
		}
	}
	return out
}

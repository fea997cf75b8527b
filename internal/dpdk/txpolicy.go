package dpdk

import (
	"fmt"
	"runtime"
	"time"
)

// This file implements TX-queue backpressure: what a forwarding worker does
// when an output port's TX ring is full.  A real NIC drops on a full
// descriptor ring; a software switch can afford to push back instead.  The
// policy is per-switch and the mechanism is strictly worker-local — retry
// state, backoff state and the spill backlog all live in the worker's own
// memory plane, so backpressure adds no shared mutable state to the
// steady-state path.
//
// The per-frame state machine:
//
//	staged ──enqueue ok──────────────────────────────▶ transmitted
//	   │
//	   ring full
//	   │
//	   ├─ TxDrop:  ───────────────────────────────────▶ dropped (txDrops++)
//	   ├─ TxBlock: backoff, re-enqueue (txRetries++) ──▶ transmitted
//	   │             └─ after txRetryLimit rounds ─────▶ dropped (txDrops++)
//	   └─ TxSpill: parked in the worker's spill ring
//	                 └─ next poll: re-enqueue ahead of newly staged frames
//	                    (txRetries++) ────────────────▶ transmitted
//	                 └─ backlog beyond spillCap ───────▶ dropped (txDrops++)
//
// Receive order is preserved in every mode: block retries the remaining
// suffix in place, and spill always drains older frames before newly staged
// ones.

// TxPolicy selects the backpressure behaviour of a full TX ring.
type TxPolicy uint8

const (
	// TxDrop counts overflow frames as TX drops immediately — the NIC-like
	// default, and the only policy with zero added latency.
	TxDrop TxPolicy = iota
	// TxBlock re-attempts the enqueue with a bounded, escalating backoff
	// (pause-loop spin, then yields, then short sleeps) and counts a drop
	// only after txRetryLimit rounds.  Favors delivery over latency.
	TxBlock
	// TxSpill parks overflow frames in a bounded worker-local backlog and
	// re-attempts them on subsequent polls, ahead of newly staged frames so
	// receive order is preserved.  The worker never stalls; drops happen
	// only when the backlog itself overflows.
	TxSpill
)

// String names the policy as accepted by ParseTxPolicy.
func (p TxPolicy) String() string {
	switch p {
	case TxDrop:
		return "drop"
	case TxBlock:
		return "block"
	case TxSpill:
		return "spill"
	default:
		return fmt.Sprintf("txpolicy(%d)", uint8(p))
	}
}

// ParseTxPolicy parses a policy name (drop | block | spill).
func ParseTxPolicy(s string) (TxPolicy, error) {
	switch s {
	case "drop":
		return TxDrop, nil
	case "block":
		return TxBlock, nil
	case "spill":
		return TxSpill, nil
	default:
		return TxDrop, fmt.Errorf("dpdk: unknown TX policy %q (want drop, block or spill)", s)
	}
}

// txRetryLimit bounds the block policy's re-enqueue rounds per flush; with
// the escalating backoff this caps the worst-case stall of one flush at
// around a millisecond before the remainder is dropped.
const txRetryLimit = 256

// spillCap bounds one worker's per-port spill backlog (frames).  Keeping it
// a small multiple of the TX ring size bounds both memory and the added
// latency of a spilled frame.
const spillCap = 1024

// SetTxPolicy selects the backpressure policy for full TX rings.  Call it
// before starting workers (or the first PollOnce); the workers read the
// policy without synchronization.
//
// The spill policy's carried-across-polls backlog belongs to RunWorkers
// loops.  PollOnce is run-to-completion, so it resolves any backlog before
// returning: one final enqueue attempt, then the remainder is counted as
// drops.
func (s *Switch) SetTxPolicy(p TxPolicy) { s.txPolicy = p }

// TxPolicy returns the switch's backpressure policy.
func (s *Switch) TxPolicy() TxPolicy { return s.txPolicy }

// countTxDrops records n frames abandoned by the backpressure policy in the
// port counters (the worker keeps its own per-worker tally too).
func (p *Port) countTxDrops(n int) {
	if n > 0 {
		p.policyDrops.Add(uint64(n))
	}
}

// txBackoff pauses the worker between TX retry rounds: a pause-loop spin for
// the first rounds (the consumer is probably mid-drain), then cooperative
// yields, then short sleeps so a stuck consumer cannot burn the worker's
// whole time slice.
func (ws *workerState) txBackoff(attempt int) {
	switch {
	case attempt < 8:
		x := ws.spin
		for i := 0; i < attempt*32; i++ {
			x = x*2862933555777941757 + 3037000493
		}
		ws.spin = x
	case attempt < 64:
		runtime.Gosched()
	default:
		time.Sleep(5 * time.Microsecond)
	}
}

// flushSpill is the spill policy's per-port flush: drain the existing
// backlog first (older frames keep their place in the receive order), then
// newly staged frames, and park whatever still does not fit — up to spillCap
// — in the worker-owned backlog for the next poll.  It returns the new
// backlog slice (capacity is retained across polls, so the steady state
// allocates nothing once the backlog has grown to its working size).
func (s *Switch) flushSpill(ws *workerState, port *Port, spill, staged [][]byte, retries, drops *uint64) [][]byte {
	if len(spill) > 0 {
		// Every parked frame re-attempted this poll is one retry.
		*retries += uint64(len(spill))
		n := port.be.TxBurst(ws.txq, spill)
		spill = spill[:copy(spill, spill[n:])]
	}
	if len(spill) == 0 && len(staged) > 0 {
		n := port.be.TxBurst(ws.txq, staged)
		staged = staged[n:]
	}
	if len(staged) > 0 {
		room := spillCap - len(spill)
		if room > len(staged) {
			room = len(staged)
		}
		if room > 0 {
			spill = append(spill, staged[:room]...)
		}
		if over := len(staged) - room; over > 0 {
			*drops += uint64(over)
			port.countTxDrops(over)
		}
	}
	return spill
}

// abandonSpill is the worker-shutdown path: one final enqueue attempt per
// backlogged port, then whatever is still stuck is accounted as dropped so
// Stats() stays truthful after RunWorkers' stop function returns.
func (s *Switch) abandonSpill(ws *workerState) {
	if ws.spillPending == 0 {
		return
	}
	var tal stageTallies
	for pi, spill := range ws.txSpill {
		if len(spill) == 0 {
			continue
		}
		tal[cTxRetries] += uint64(len(spill))
		n := s.ports[pi].be.TxBurst(ws.txq, spill)
		if over := len(spill) - n; over > 0 {
			tal[cTxDrops] += uint64(over)
			s.ports[pi].countTxDrops(over)
		}
		ws.txSpill[pi] = spill[:0]
	}
	ws.spillPending = 0
	ws.counters.publish(&tal)
}

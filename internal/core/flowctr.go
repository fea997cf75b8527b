package core

import (
	"unsafe"

	"eswitch/internal/openflow"
)

// Per-flow counter accumulation (Options.UpdateCounters).
//
// Bumping a flow entry's shared atomic counters on every packet costs two
// LOCK-prefixed read-modify-writes on a cache line the template walk does
// not otherwise touch — measured at >10% of the whole forwarding path on the
// single-table workloads.  Workers therefore accumulate per-entry deltas in
// a private open-addressed table (plain adds on worker-owned memory, the
// VPP/OVS per-thread-stats shape) and fold them into the entries' stable
// atomic counters in batches:
//
//   - when the accumulated packet count reaches ctrFlushPackets (bounds the
//     staleness a sustained-rate worker can build up),
//   - at a quiescent Exit that saw no traffic (so counters go exact the
//     moment a worker idles),
//   - on a slot collision (the loser's delta folds straight to its entry —
//     the accumulator degrades to per-packet atomics, never loses counts),
//   - at the end of every facade Process, a burst of one whose few claimed
//     slots the flush folds without scanning the table,
//   - and when the worker is released.
//
// FlowSamples and the lifecycle sweeper additionally fold the deltas of
// every parked pinned worker (the facade's ProcessBurst path), so off-path
// samplers — the flow exporter, the sweeper's idle detector — observe exact
// totals whenever the traffic source has gone quiet.  The only residual lag
// is a live registered worker's in-flight window of at most ctrFlushPackets
// packets.
//
// The accumulator keys on the entry's *openflow.Counters pointer, which is
// stable for the entry's lifetime and independent of snapshot rebuilds, so
// incremental table updates need no coordination with it.

// ctrSlots is the accumulator's table size (power of two).  Direct-mapped,
// so the collision rate for A hot entries is ~A/ctrSlots per access; at 4096
// slots a few hundred hot entries evict on ~10% of packets, and a very wide
// active set just evicts more often, degrading toward the direct-atomic cost
// it replaces — never losing counts.  64KB per worker at 16 bytes a slot.
const ctrSlots = 4096

// ctrFlushPackets caps how many packets of per-flow deltas a worker may hold
// back before folding them into the shared counters.
const ctrFlushPackets = 8192

// cacheMaxCtrs is the deepest walk (in matched entries) whose counter set a
// cache entry can memoize.  Deeper walks simply are not memoized on a
// counters-enabled datapath — the packet forwards correctly and counts
// exactly, it just keeps taking the full walk.
const cacheMaxCtrs = 8

// ctrList records the flow entries a pipeline walk matched — by their stable
// Counters pointers — so the verdict cache can keep per-flow statistics
// exact on hits: a cache hit replays the walk's verdict program AND bumps the
// same entries the walk would have.  Soundness is the cache's own soundness
// argument: a hit proves the packet would have taken the identical decision
// path (same key under the compiled mask + generation), hence matched the
// identical entry chain.
type ctrList struct {
	ptrs [cacheMaxCtrs]*openflow.Counters
	n    uint8
	over bool // walk matched more entries than the list holds
}

func (l *ctrList) reset() { l.n, l.over = 0, false }

func (l *ctrList) add(c *openflow.Counters) {
	if int(l.n) >= len(l.ptrs) {
		l.over = true
		return
	}
	l.ptrs[l.n] = c
	l.n++
}

// bumpCtrs credits one packet of the given length to every recorded entry
// through the worker's delta accumulator (entries record counter pointers
// only on a counters-enabled datapath, where every worker owns one).
func bumpCtrs(ptrs *[cacheMaxCtrs]*openflow.Counters, n uint8, bytes int, a *flowCtrAccum) {
	for i := uint8(0); i < n; i++ {
		a.add(ptrs[i], bytes)
	}
}

type ctrSlot struct {
	key *openflow.Counters
	// Deltas are uint32: a flush window holds at most ctrFlushPackets
	// packets, so neither count can overflow before it folds.
	pkts  uint32
	bytes uint32
}

// flowCtrAccum is a worker-private flow-counter delta table.  Single writer
// (the owning worker, or FlowSamples while the worker is parked in the
// pinned-worker free list); no locks, no allocation after construction.
type flowCtrAccum struct {
	slots [ctrSlots]ctrSlot
	// used lists the slots claimed since the last flush, while they fit
	// (nused counts on past that): a short window folds without a scan.
	used     [32]uint16
	nused    int
	pending  int  // packets accumulated since the last flush
	sawBurst bool // did this Enter/Exit bracket classify any traffic?
}

func newFlowCtrAccum() *flowCtrAccum { return &flowCtrAccum{} }

// add records one packet against the entry counter c.  A slot conflict folds
// the previous occupant's delta to its entry immediately, so the table never
// drops a count.
func (a *flowCtrAccum) add(c *openflow.Counters, bytes int) {
	// Fibonacci hash of the pointer; Counters sits inside FlowEntry, so the
	// low alignment bits carry no information.
	i := (uint64(uintptr(unsafe.Pointer(c))) >> 4) * 0x9E3779B97F4A7C15 >> (64 - 12) & (ctrSlots - 1)
	s := &a.slots[i]
	if s.key != c {
		s.fold()
		s.key = c
		if a.nused < len(a.used) {
			a.used[a.nused] = uint16(i)
		}
		a.nused++
	}
	s.pkts++
	s.bytes += uint32(bytes)
	a.pending++
}

// flush folds every held delta into its entry's shared counters and empties
// the table.
func (a *flowCtrAccum) flush() {
	if a.pending == 0 {
		return
	}
	if a.nused <= len(a.used) {
		for _, i := range a.used[:a.nused] {
			a.slots[i].fold()
		}
	} else {
		for i := range a.slots {
			a.slots[i].fold()
		}
	}
	a.nused, a.pending = 0, 0
}

// fold moves the slot's delta into its entry's counters and frees the slot.
func (s *ctrSlot) fold() {
	if s.key == nil {
		return
	}
	if s.pkts > 0 || s.bytes > 0 {
		s.key.Packets.Add(uint64(s.pkts))
		s.key.Bytes.Add(uint64(s.bytes))
	}
	s.key, s.pkts, s.bytes = nil, 0, 0
}

// flushPinnedCounters folds the counter deltas parked in the pinned-worker
// free list (the facade ProcessBurst path).  Receiving a worker from
// the channel grants exclusive access to its accumulator, so the fold is
// race-free; the worker goes straight back on the list.
func (d *Datapath) flushPinnedCounters() {
	if !d.opts.UpdateCounters {
		return
	}
	for i := 0; i < maxPinnedWorkers; i++ {
		select {
		case w := <-d.pins:
			if w.scratch.ctr != nil {
				w.scratch.ctr.flush()
			}
			d.pinPut(w)
		default:
			return
		}
	}
}

package cpumodel

import (
	"fmt"
	"sync/atomic"

	"eswitch/internal/lockcount"
)

// Region is a slice of the simulated address space standing in for one data
// structure (a hash table, an LPM level, a cache of flow entries, a packet
// buffer pool, ...).  Datapaths translate their logical accesses ("probe
// bucket h of this table") into addresses inside their regions, so the
// cache-hierarchy simulator sees a working set whose size and reuse pattern
// track the real structures.
type Region struct {
	base uint64
	size uint64
	name string
}

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Size returns the region's size in bytes.
func (r *Region) Size() uint64 { return r.size }

// Addr maps a logical offset into the region to a simulated address,
// wrapping modulo the region size.
func (r *Region) Addr(offset uint64) uint64 {
	if r.size == 0 {
		return r.base
	}
	return r.base + offset%r.size
}

// meterTotals is one fold of the additive counters.
type meterTotals struct {
	packets   uint64
	cycles    uint64
	llcMisses uint64
}

// Meter accumulates per-packet cycle costs for one datapath instance.  A nil
// *Meter is valid everywhere and makes all accounting free, so the hot paths
// can keep a single code path.
//
// # Sharding (multi-worker metering)
//
// A Meter's accounting methods are single-writer: exactly one goroutine may
// charge costs to a given Meter at a time.  Multi-worker dataplanes instead
// give every forwarding worker its own shard — NewShard returns a
// cache-line-padded child Meter with a private cache hierarchy (each worker
// core has private L1/L2/L3 in this model) whose counters only that worker
// writes.  The parent folds the shards on every read (Packets, TotalCycles,
// CyclesPerPacket, PacketRate, LLCMissesPerPacket, String), so a metered
// multi-worker run is race-free without any lock or atomic read-modify-write
// on the packet path: shard counters are written with single-writer
// atomic.Store and read with atomic.Load.  ReleaseShard folds a retired
// worker's totals into the parent so folded reads stay monotonic.
//
// Reset and PacketCycles remain quiescent-only: call them when no worker is
// actively metering.
type Meter struct {
	Platform Platform
	// Cache, when non-nil, is consulted for every RegionAccess to decide
	// the access latency; when nil, accesses cost the optimistic L1
	// latency.
	Cache *Hierarchy

	// Additive counters.  Written only by the owning worker (plain
	// load-then-store, never read-modify-write), loaded by fold readers.
	packets   atomic.Uint64
	cycles    atomic.Uint64
	llcMisses atomic.Uint64 // accesses served past the last cache level
	pktCycles uint64        // cycles of the packet currently being metered (owner-only)

	nextBase uint64

	// Shard registry (root meters only).  shardMu is a counted mutex so
	// the zero-lock acceptance tests can assert steady-state forwarding
	// never touches it (shards register once, at worker start).
	shardMu lockcount.Mutex
	shards  []*Meter
	retired meterTotals
	root    *Meter // non-nil on shards

	// Trailing padding keeps a shard's hot counters off the next shard's
	// cache line (shards are allocated back to back by busy registrars).
	_ [64]byte
}

// storeAdd bumps a single-writer counter without an atomic read-modify-write:
// the owning worker is the only writer, so load-then-store is exact, and the
// atomic store is what makes concurrent fold reads race-free.
func storeAdd(c *atomic.Uint64, n uint64) { c.Store(c.Load() + n) }

// NewMeter returns a meter with a fresh cache hierarchy on the platform.
func NewMeter(p Platform) *Meter {
	return &Meter{Platform: p, Cache: NewHierarchy(p), nextBase: 1 << 20}
}

// NewMeterNoCache returns a meter that charges the optimistic L1 latency for
// every access (the paper's model-ub assumption).
func NewMeterNoCache(p Platform) *Meter {
	return &Meter{Platform: p, nextBase: 1 << 20}
}

// NewShard registers and returns a per-worker shard of this meter: a child
// Meter with private counters (and a private cache hierarchy when the parent
// simulates one) that exactly one worker goroutine may write.  The parent's
// read accessors fold all shards in.  Shards of shards are not allowed; a
// shard's NewShard delegates to the root.
func (m *Meter) NewShard() *Meter {
	if m == nil {
		return nil
	}
	if m.root != nil {
		return m.root.NewShard()
	}
	s := &Meter{Platform: m.Platform, root: m}
	if m.Cache != nil {
		s.Cache = NewHierarchy(m.Platform)
	}
	m.shardMu.Lock()
	m.shards = append(m.shards, s)
	m.shardMu.Unlock()
	return s
}

// ReleaseShard folds a retired worker's shard into the meter's base totals
// and drops it from the registry, keeping folded reads monotonic while the
// registry stays bounded by the number of live workers.  The shard must be
// quiescent (its worker stopped).
func (m *Meter) ReleaseShard(s *Meter) {
	if m == nil || s == nil {
		return
	}
	if m.root != nil {
		m.root.ReleaseShard(s)
		return
	}
	m.shardMu.Lock()
	kept := m.shards[:0]
	found := false
	for _, o := range m.shards {
		if o == s {
			found = true
			continue
		}
		kept = append(kept, o)
	}
	m.shards = kept
	if found {
		m.retired.packets += s.packets.Load()
		m.retired.cycles += s.cycles.Load()
		m.retired.llcMisses += s.llcMisses.Load()
	}
	m.shardMu.Unlock()
}

// NumShards returns how many worker shards are currently registered.
func (m *Meter) NumShards() int {
	if m == nil {
		return 0
	}
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	return len(m.shards)
}

// RegistryOps returns how many times the shard-registry mutex has been
// acquired; the zero-lock acceptance tests assert it stays flat across
// steady-state forwarding (shards register once per worker, never per burst).
func (m *Meter) RegistryOps() uint64 {
	if m == nil {
		return 0
	}
	return m.shardMu.Ops()
}

// fold sums the meter's own counters, the retired base and all live shards.
func (m *Meter) fold() meterTotals {
	t := meterTotals{
		packets:   m.packets.Load(),
		cycles:    m.cycles.Load(),
		llcMisses: m.llcMisses.Load(),
	}
	m.shardMu.Lock()
	t.packets += m.retired.packets
	t.cycles += m.retired.cycles
	t.llcMisses += m.retired.llcMisses
	for _, s := range m.shards {
		t.packets += s.packets.Load()
		t.cycles += s.cycles.Load()
		t.llcMisses += s.llcMisses.Load()
	}
	m.shardMu.Unlock()
	return t
}

// NewRegion carves a new region of the given size out of the simulated
// address space.  Regions never overlap; shards delegate to the root so one
// address space serves the whole meter family.
func (m *Meter) NewRegion(name string, size int) *Region {
	if m == nil {
		return &Region{name: name, size: uint64(size)}
	}
	if m.root != nil {
		return m.root.NewRegion(name, size)
	}
	if size < 64 {
		size = 64
	}
	m.shardMu.Lock()
	r := &Region{base: m.nextBase, size: uint64(size), name: name}
	// Leave a guard gap and keep regions line-aligned.
	m.nextBase += (uint64(size) + 4096) &^ 63
	m.shardMu.Unlock()
	return r
}

// StartPacket marks the beginning of one packet's processing.
func (m *Meter) StartPacket() {
	if m == nil {
		return
	}
	storeAdd(&m.packets, 1)
	m.pktCycles = 0
}

// AddCycles charges fixed cycles to the current packet.
func (m *Meter) AddCycles(n int) {
	if m == nil {
		return
	}
	storeAdd(&m.cycles, uint64(n))
	m.pktCycles += uint64(n)
}

// RegionAccess charges one memory access at the given logical offset within
// the region, returning the latency charged.
func (m *Meter) RegionAccess(r *Region, offset uint64) int {
	if m == nil {
		return 0
	}
	lat := m.Platform.L1Lat
	if m.Cache != nil {
		var level CacheLevel
		level, lat = m.Cache.Access(r.Addr(offset))
		if level == LevelMemory {
			storeAdd(&m.llcMisses, 1)
		}
	}
	storeAdd(&m.cycles, uint64(lat))
	m.pktCycles += uint64(lat)
	return lat
}

// PacketCycles returns the cycles charged to the packet currently being
// metered (between StartPacket calls).
func (m *Meter) PacketCycles() uint64 {
	if m == nil {
		return 0
	}
	return m.pktCycles
}

// Packets returns the number of packets metered so far, folded over all
// worker shards.
func (m *Meter) Packets() uint64 {
	if m == nil {
		return 0
	}
	return m.fold().packets
}

// TotalCycles returns all cycles charged so far, folded over all shards.
func (m *Meter) TotalCycles() uint64 {
	if m == nil {
		return 0
	}
	return m.fold().cycles
}

// CyclesPerPacket returns the mean cycles per packet over all shards.
func (m *Meter) CyclesPerPacket() float64 {
	if m == nil {
		return 0
	}
	t := m.fold()
	if t.packets == 0 {
		return 0
	}
	return float64(t.cycles) / float64(t.packets)
}

// PacketRate returns the modelled single-core packet rate in packets per
// second at the platform frequency.
func (m *Meter) PacketRate() float64 {
	cpp := m.CyclesPerPacket()
	if cpp == 0 {
		return 0
	}
	return m.Platform.FreqGHz * 1e9 / cpp
}

// LatencyMicros returns the modelled per-packet latency in microseconds.
func (m *Meter) LatencyMicros() float64 {
	cpp := m.CyclesPerPacket()
	if cpp == 0 {
		return 0
	}
	return cpp / (m.Platform.FreqGHz * 1e3)
}

// LLCMissesPerPacket returns the simulated last-level-cache misses per
// packet, folded over all shards (each worker shard simulates its own
// private hierarchy).
func (m *Meter) LLCMissesPerPacket() float64 {
	if m == nil {
		return 0
	}
	t := m.fold()
	if t.packets == 0 {
		return 0
	}
	return float64(t.llcMisses) / float64(t.packets)
}

// Reset clears all counters (and the cache hierarchy contents) of the meter
// and all its shards.  Quiescent-only: no worker may be metering while Reset
// runs.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	m.packets.Store(0)
	m.cycles.Store(0)
	m.llcMisses.Store(0)
	m.pktCycles = 0
	if m.Cache != nil {
		m.Cache.Reset()
	}
	if m.root == nil {
		m.shardMu.Lock()
		m.retired = meterTotals{}
		shards := append([]*Meter(nil), m.shards...)
		m.shardMu.Unlock()
		for _, s := range shards {
			s.Reset()
		}
	}
}

// String summarizes the meter (folded over all shards).
func (m *Meter) String() string {
	if m == nil {
		return "meter{nil}"
	}
	t := m.fold()
	cpp, llc := 0.0, 0.0
	if t.packets > 0 {
		cpp = float64(t.cycles) / float64(t.packets)
		llc = float64(t.llcMisses) / float64(t.packets)
	}
	rate := 0.0
	if cpp > 0 {
		rate = m.Platform.FreqGHz * 1e9 / cpp
	}
	return fmt.Sprintf("meter{packets=%d cycles/pkt=%.1f rate=%.2f Mpps llc/pkt=%.3f shards=%d}",
		t.packets, cpp, rate/1e6, llc, m.NumShards())
}

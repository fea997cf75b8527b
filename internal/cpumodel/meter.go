package cpumodel

import "fmt"

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

// Meter accumulates per-packet cycle costs for one datapath instance.  A nil
// *Meter is valid everywhere and makes all accounting free, so the hot paths
// can keep a single code path.
//
// A Meter is a plain single-writer accumulator: exactly one goroutine may
// charge costs to it at a time, and the read accessors are quiescent-only
// (call them when nobody is metering).  Datapaths that accept concurrent
// callers serialize their metered walk on a mutex of their own
// (core.Datapath.Process, ovs.Switch.Process).
type Meter struct {
	Platform Platform
	// Cache, when non-nil, is consulted for every RegionAccess to decide
	// the access latency; when nil, accesses cost the optimistic L1
	// latency.
	Cache *Hierarchy

	packets   uint64
	cycles    uint64
	llcMisses uint64 // accesses served past the last cache level
	pktCycles uint64 // cycles of the packet currently being metered

	nextBase uint64
}

// NewMeter returns a meter with a fresh cache hierarchy on the platform.
func NewMeter(p Platform) *Meter {
	return &Meter{Platform: p, Cache: NewHierarchy(p), nextBase: 1 << 20}
}

// NewMeterNoCache returns a meter that charges the optimistic L1 latency for
// every access (the paper's model-ub assumption).
func NewMeterNoCache(p Platform) *Meter {
	return &Meter{Platform: p, nextBase: 1 << 20}
}

// NewRegion carves a new region of the given size out of the simulated
// address space.  Regions never overlap.  The address-space cursor is separate
// from the counters, so a datapath may carve regions for a rebuilt table (under
// its writer lock) while a walk is being metered.
func (m *Meter) NewRegion(name string, size int) *Region {
	if m == nil {
		return &Region{name: name, size: uint64(size)}
	}
	if size < 64 {
		size = 64
	}
	r := &Region{base: m.nextBase, size: uint64(size), name: name}
	// Leave a guard gap and keep regions line-aligned.
	m.nextBase += (uint64(size) + 4096) &^ 63
	return r
}

// StartPacket marks the beginning of one packet's processing.
func (m *Meter) StartPacket() {
	if m == nil {
		return
	}
	m.packets++
	m.pktCycles = 0
}

// AddCycles charges fixed cycles to the current packet.
func (m *Meter) AddCycles(n int) {
	if m == nil {
		return
	}
	m.cycles += uint64(n)
	m.pktCycles += uint64(n)
}

// RegionAccess charges one memory access at the given logical offset within
// the region, returning the latency charged.  A nil region, standing for a
// structure that has none, charges nothing.
func (m *Meter) RegionAccess(r *Region, offset uint64) int {
	if m == nil || r == nil {
		return 0
	}
	lat := m.Platform.L1Lat
	if m.Cache != nil {
		var level CacheLevel
		level, lat = m.Cache.Access(r.Addr(offset))
		if level == LevelMemory {
			m.llcMisses++
		}
	}
	m.cycles += uint64(lat)
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

// Packets returns the number of packets metered so far.
func (m *Meter) Packets() uint64 {
	if m == nil {
		return 0
	}
	return m.packets
}

// TotalCycles returns all cycles charged so far.
func (m *Meter) TotalCycles() uint64 {
	if m == nil {
		return 0
	}
	return m.cycles
}

// CyclesPerPacket returns the mean cycles per packet.
func (m *Meter) CyclesPerPacket() float64 {
	if m == nil || m.packets == 0 {
		return 0
	}
	return float64(m.cycles) / float64(m.packets)
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
// packet.
func (m *Meter) LLCMissesPerPacket() float64 {
	if m == nil || m.packets == 0 {
		return 0
	}
	return float64(m.llcMisses) / float64(m.packets)
}

// Reset clears all counters and the cache hierarchy contents.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	m.packets, m.cycles, m.llcMisses, m.pktCycles = 0, 0, 0, 0
	if m.Cache != nil {
		m.Cache.Reset()
	}
}

// String summarizes the meter.
func (m *Meter) String() string {
	if m == nil {
		return "meter{nil}"
	}
	return fmt.Sprintf("meter{packets=%d cycles/pkt=%.1f rate=%.2f Mpps llc/pkt=%.3f}",
		m.packets, m.CyclesPerPacket(), m.PacketRate()/1e6, m.LLCMissesPerPacket())
}

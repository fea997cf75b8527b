package cpumodel

import (
	"testing"
	"testing/quick"
)

func TestDefaultPlatformMatchesTable1(t *testing.T) {
	p := DefaultPlatform()
	if p.L1Size != 32<<10 || p.L2Size != 256<<10 || p.L3Size != 15<<20 {
		t.Fatalf("cache sizes: %d %d %d", p.L1Size, p.L2Size, p.L3Size)
	}
	if p.L1Lat != 4 || p.L2Lat != 12 || p.L3Lat != 29 {
		t.Fatalf("cache latencies: %d %d %d", p.L1Lat, p.L2Lat, p.L3Lat)
	}
	if p.FreqGHz != 2.0 {
		t.Fatalf("frequency %v", p.FreqGHz)
	}
}

func TestCacheLevelString(t *testing.T) {
	for l, want := range map[CacheLevel]string{levelL1: "L1", levelL2: "L2", levelL3: "L3", levelMemory: "memory"} {
		if l.String() != want {
			t.Errorf("%d -> %q want %q", l, l.String(), want)
		}
	}
}

func TestHierarchySmallWorkingSetStaysInL1(t *testing.T) {
	h := NewHierarchy(DefaultPlatform())
	// Touch 4 KiB repeatedly: after the cold pass everything is an L1 hit.
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			h.Access(addr)
		}
	}
	// Final pass must be all L1 hits.
	for addr := uint64(0); addr < 4096; addr += 64 {
		if level, lat := h.Access(addr); level != levelL1 || lat != 4 {
			t.Fatalf("addr %d served from %v (%d cycles)", addr, level, lat)
		}
	}
	st := h.Stats()
	if st.LLCMisses != 64 {
		t.Fatalf("cold LLC misses: %d, want one per line (64)", st.LLCMisses)
	}
}

func TestHierarchyLargeWorkingSetMissesLLC(t *testing.T) {
	h := NewHierarchy(DefaultPlatform())
	// A 64 MiB working set cannot fit the 15 MiB L3: a second sweep still
	// misses the LLC for most lines.
	const size = 64 << 20
	for addr := uint64(0); addr < size; addr += 64 {
		h.Access(addr)
	}
	before := h.Stats().LLCMisses
	for addr := uint64(0); addr < size; addr += 64 {
		h.Access(addr)
	}
	extra := h.Stats().LLCMisses - before
	if extra < (size/64)/2 {
		t.Fatalf("second sweep of an over-LLC working set produced only %d LLC misses", extra)
	}
}

func TestHierarchyL2Window(t *testing.T) {
	h := NewHierarchy(DefaultPlatform())
	// 128 KiB fits L2 but not L1: steady state should serve mostly from L2.
	const size = 128 << 10
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < size; addr += 64 {
			h.Access(addr)
		}
	}
	l1, l2 := 0, 0
	for addr := uint64(0); addr < size; addr += 64 {
		level, _ := h.Access(addr)
		switch level {
		case levelL1:
			l1++
		case levelL2:
			l2++
		}
	}
	if l2 == 0 || l2 < l1 {
		t.Fatalf("expected the majority of hits from L2, got L1=%d L2=%d", l1, l2)
	}
}

func TestMeterNilIsSafe(t *testing.T) {
	var m *Meter
	m.StartPacket()
	m.AddCycles(10)
	r := m.NewRegion("x", 100)
	m.RegionAccess(r, 0)
	if m.CyclesPerPacket() != 0 || m.PacketRate() != 0 || m.Packets() != 0 {
		t.Fatal("nil meter must report zeros")
	}
	if m.String() != "meter{nil}" {
		t.Fatalf("nil meter string %q", m.String())
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeterNoCache(DefaultPlatform())
	r := m.NewRegion("table", 1024)
	for i := 0; i < 10; i++ {
		m.StartPacket()
		m.AddCycles(100)
		m.RegionAccess(r, uint64(i*64))
	}
	if m.Packets() != 10 {
		t.Fatalf("packets %d", m.Packets())
	}
	wantCPP := 104.0 // 100 fixed + L1 latency of 4
	if got := m.CyclesPerPacket(); got != wantCPP {
		t.Fatalf("cycles/packet %v want %v", got, wantCPP)
	}
	wantRate := 2.0e9 / wantCPP
	if got := m.PacketRate(); got < wantRate*0.999 || got > wantRate*1.001 {
		t.Fatalf("rate %v want %v", got, wantRate)
	}
	if m.LatencyMicros() <= 0 {
		t.Fatal("latency must be positive")
	}
	if m.pktCycles != 104 {
		t.Fatalf("per-packet cycles %d", m.pktCycles)
	}
	m.Reset()
	if m.Packets() != 0 || m.TotalCycles() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMeterRegionsDoNotOverlap(t *testing.T) {
	m := NewMeter(DefaultPlatform())
	a := m.NewRegion("a", 4096)
	b := m.NewRegion("b", 4096)
	if a.addr(0) == b.addr(0) {
		t.Fatal("regions overlap")
	}
	if a.addr(4096) != a.addr(0) {
		t.Fatal("region offset must wrap modulo size")
	}
	if a.name != "a" || b.size != 4096 {
		t.Fatal("region metadata broken")
	}
}

func TestMeterCacheGrowthIncreasesMisses(t *testing.T) {
	// The same number of accesses spread over a larger working set must
	// produce at least as many LLC misses — the effect behind Fig. 15.
	missesFor := func(workingSet int) float64 {
		m := NewMeter(DefaultPlatform())
		r := m.NewRegion("flows", workingSet)
		const packets = 20000
		for i := 0; i < packets; i++ {
			m.StartPacket()
			// Each packet touches a flow-dependent line.
			m.RegionAccess(r, uint64(i*64))
		}
		return m.LLCMissesPerPacket()
	}
	small := missesFor(256 << 10) // fits L3 easily
	large := missesFor(256 << 20) // far larger than L3
	if small > large {
		t.Fatalf("small working set misses %v > large %v", small, large)
	}
	if large < 0.5 {
		t.Fatalf("large working set should miss the LLC on most packets, got %v", large)
	}
}

func TestAtomPlatform(t *testing.T) {
	p := AtomPlatform()
	if p.FreqGHz != 2.4 || p.L3Size != 0 {
		t.Fatalf("atom platform %+v", p)
	}
	h := NewHierarchy(p)
	level, lat := h.Access(0)
	if level != levelMemory || lat != p.MemLat {
		t.Fatalf("cold access on no-L3 platform: %v %d", level, lat)
	}
	if _, lat := h.Access(0); lat != p.L1Lat {
		t.Fatalf("warm access should hit L1, got %d", lat)
	}
}

func TestCacheAccessDeterministicProperty(t *testing.T) {
	f := func(addrs []uint64) bool {
		h1 := NewHierarchy(DefaultPlatform())
		h2 := NewHierarchy(DefaultPlatform())
		for _, a := range addrs {
			l1, c1 := h1.Access(a)
			l2, c2 := h2.Access(a)
			if l1 != l2 || c1 != c2 {
				return false
			}
		}
		return h1.Stats() == h2.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(DefaultPlatform())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i) * 64)
	}
}

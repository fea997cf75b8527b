package core

import (
	"runtime"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// TestEntryFootprint bounds the live heap one flow entry costs once it is
// installed: its pipeline entry, which the datapath takes over, and its
// compiled entry and template slot, read over building and compiling
// L2UseCase(10000, 4).  It reads about 480 B on 64-bit platforms
// (docs/architecture.md, "Memory per flow entry"); the bound leaves room for
// allocator size classes, not for another copy of the entry's match or
// action list.
func TestEntryFootprint(t *testing.T) {
	const entries, limit = 10000, 550
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	uc := workload.L2UseCase(entries, 4)
	dp, err := Compile(uc.Pipeline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(uc)
	runtime.KeepAlive(dp)
	perEntry := float64(int64(after)-int64(before)) / entries
	t.Logf("%.0f B of live heap per flow entry", perEntry)
	if perEntry > limit {
		t.Fatalf("%.0f B of live heap per flow entry, want at most %d", perEntry, limit)
	}
}

// TestUpdateFootprint holds incremental flow-mods to the one copy of each
// table: 64 /24 route adds on the 10k-route RIB of L3UseCase(10000, 8, 2016)
// must leave the live heap within 2 MB of the freshly compiled datapath's,
// and 64 MAC adds on L2UseCase(100000, 4) within 5% of it.  A worker is
// registered, as under traffic, and every mod must be incremental.  A second
// copy of the RIB's 64 MB first level, or of the MAC table's buckets, fails
// it.
func TestUpdateFootprint(t *testing.T) {
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cases := []struct {
		name  string
		uc    func() *workload.UseCase
		entry func(i int) *openflow.FlowEntry
		bound func(compiled int64) int64
	}{
		{"route", func() *workload.UseCase { return workload.L3UseCase(10000, 8, 2016) },
			func(i int) *openflow.FlowEntry {
				return openflow.NewEntry(24, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(241, byte(i), byte(3*i), 0)), 24),
					openflow.Apply(openflow.DecTTL(), openflow.Output(uint32(1+i%8))))
			},
			func(int64) int64 { return 2 << 20 }},
		{"mac", func() *workload.UseCase { return workload.L2UseCase(100000, 4) },
			func(i int) *openflow.FlowEntry {
				return openflow.NewEntry(100, openflow.NewMatch().Set(openflow.FieldEthDst, 0x020001000000+uint64(i)),
					openflow.Apply(openflow.Output(uint32(1+i%4))))
			},
			func(compiled int64) int64 { return compiled / 20 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			uc := c.uc()
			dp, err := Compile(uc.Pipeline, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			w := dp.RegisterWorker()
			defer dp.UnregisterWorker(w)
			compiled := liveHeap()
			rebuilds, incremental := dp.Rebuilds(), dp.IncrementalUpdates()
			for i := range 64 {
				if err := dp.AddFlow(0, c.entry(i)); err != nil {
					t.Fatal(err)
				}
			}
			if dp.Rebuilds() != rebuilds || dp.IncrementalUpdates()-incremental != 64 {
				t.Fatalf("%d rebuilds and %d incremental updates, want 0 and 64",
					dp.Rebuilds()-rebuilds, dp.IncrementalUpdates()-incremental)
			}
			grown := liveHeap() - compiled
			runtime.KeepAlive(uc)
			runtime.KeepAlive(dp)
			t.Logf("64 mods grew the live heap by %.2f MB over the compiled %.1f MB", float64(grown)/(1<<20), float64(compiled)/(1<<20))
			if grown > c.bound(compiled) {
				t.Fatalf("64 mods grew the live heap by %.2f MB, want at most %.2f MB",
					float64(grown)/(1<<20), float64(c.bound(compiled))/(1<<20))
			}
		})
	}
}

package core

import (
	"runtime"
	"testing"

	"eswitch/internal/workload"
)

// TestEntryFootprint bounds the live heap one flow entry costs once it is
// installed: its pipeline entry, the compiled datapath's clone of it and its
// compiled slot, read over building and compiling L2UseCase(10000, 4).  It
// reads about 750 B on 64-bit platforms (docs/architecture.md, "Memory per
// flow entry"); the bound leaves room for allocator size classes, not for
// another copy of a match with every field's value and mask.
func TestEntryFootprint(t *testing.T) {
	const entries, limit = 10000, 1000
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

package lpm

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestFirstLevelHugePages checks that a written DIR-24-8 first level is
// backed, at least in part, by transparent huge pages, so a silent fallback
// to base pages does not go unnoticed.  It sums AnonHugePages over the
// /proc/self/smaps mappings that overlap tbl24.
func TestFirstLevelHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable: %q %v", mode, err)
	}
	tbl := New()
	if err := tbl.Insert(0, 0, 1); err != nil { // writes every tbl24 slot
		t.Fatal(err)
	}
	lo := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(tbl.tbl24))))
	hi := lo + 4*uint64(len(tbl.tbl24))

	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	var hugeKB uint64
	overlaps := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if start, end, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			s, err1 := strconv.ParseUint(start, 16, 64)
			e, err2 := strconv.ParseUint(end, 16, 64)
			overlaps = err1 == nil && err2 == nil && s < hi && e > lo
			continue
		}
		if overlaps && fields[0] == "AnonHugePages:" && len(fields) > 1 {
			kb, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps line %q: %v", sc.Text(), err)
			}
			hugeKB += kb
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d kB of AnonHugePages in the mappings over the %d kB tbl24", hugeKB, (hi-lo)>>10)
	if hugeKB == 0 {
		t.Fatalf("tbl24 [%#x,%#x) has no huge pages", lo, hi)
	}
	if v, ok := tbl.Lookup(ip(1, 2, 3, 4)); !ok || v != 1 {
		t.Fatalf("default route: %d %v", v, ok)
	}
}

package lpm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eswitch/internal/workload"
)

func ip(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func TestBasicLookup(t *testing.T) {
	tbl := newWithStride(16)
	if err := tbl.Insert(ip(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(ip(10, 1, 0, 0), 16, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(ip(10, 1, 2, 0), 24, 3); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint32
		want uint32
		ok   bool
	}{
		{ip(10, 5, 5, 5), 1, true},
		{ip(10, 1, 9, 9), 2, true},
		{ip(10, 1, 2, 200), 3, true},
		{ip(11, 0, 0, 1), invalid, false},
		{ip(9, 255, 255, 255), invalid, false},
	}
	for _, c := range cases {
		got, ok := tbl.Lookup(c.addr)
		if got != c.want || ok != c.ok {
			t.Errorf("Lookup(%#x) = %d,%v want %d,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestDefaultStrideSlash32(t *testing.T) {
	tbl := New()
	if tbl.Stride() != 24 || tbl.maxPrefixLen() != 32 {
		t.Fatalf("stride %d maxlen %d", tbl.Stride(), tbl.maxPrefixLen())
	}
	if err := tbl.Insert(ip(192, 0, 2, 0), 24, 100); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(ip(192, 0, 2, 7), 32, 200); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Lookup(ip(192, 0, 2, 7)); v != 200 {
		t.Errorf("host route: %d", v)
	}
	if v, _ := tbl.Lookup(ip(192, 0, 2, 8)); v != 100 {
		t.Errorf("covering /24: %d", v)
	}
	if tbl.SecondLevelGroups() != 1 {
		t.Errorf("groups %d", tbl.SecondLevelGroups())
	}
	if _, depth, _ := tbl.Resolve(ip(192, 0, 2, 7), tbl.Probe1(ip(192, 0, 2, 7))); depth != 2 {
		t.Errorf("depth for /32 route should be 2, got %d", depth)
	}
	if _, depth, _ := tbl.Resolve(ip(10, 0, 0, 1), tbl.Probe1(ip(10, 0, 0, 1))); depth != 1 {
		t.Errorf("depth for a miss should be 1, got %d", depth)
	}
}

func TestInsertErrors(t *testing.T) {
	tbl := newWithStride(16)
	if err := tbl.Insert(0, 25, 1); err == nil {
		t.Error("prefix longer than stride+8 must be rejected")
	}
	if err := tbl.Insert(0, -1, 1); err == nil {
		t.Error("negative prefix length must be rejected")
	}
	if err := tbl.Insert(0, 8, valueMask+1); err == nil {
		t.Error("oversized value must be rejected")
	}
}

func TestDefaultRoute(t *testing.T) {
	tbl := newWithStride(16)
	if err := tbl.Insert(0, 0, 99); err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.Lookup(ip(1, 2, 3, 4)); !ok || v != 99 {
		t.Fatalf("default route: %d %v", v, ok)
	}
	// A more specific prefix wins over the default route.
	if err := tbl.Insert(ip(1, 2, 0, 0), 16, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Lookup(ip(1, 2, 3, 4)); v != 7 {
		t.Fatalf("specific over default: %d", v)
	}
	if v, _ := tbl.Lookup(ip(9, 9, 9, 9)); v != 99 {
		t.Fatalf("default still applies elsewhere: %d", v)
	}
}

func TestInsertReplaces(t *testing.T) {
	tbl := newWithStride(16)
	tbl.Insert(ip(10, 0, 0, 0), 8, 1)
	tbl.Insert(ip(10, 0, 0, 0), 8, 5)
	if v, _ := tbl.Lookup(ip(10, 1, 1, 1)); v != 5 {
		t.Fatalf("replacement: %d", v)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len after replace: %d", tbl.Len())
	}
}

func TestDelete(t *testing.T) {
	tbl := newWithStride(16)
	tbl.Insert(ip(10, 0, 0, 0), 8, 1)
	tbl.Insert(ip(10, 1, 0, 0), 16, 2)
	tbl.Insert(ip(10, 1, 2, 0), 24, 3)
	if !tbl.Delete(ip(10, 1, 2, 0), 24) {
		t.Fatal("delete /24 failed")
	}
	if v, _ := tbl.Lookup(ip(10, 1, 2, 200)); v != 2 {
		t.Fatalf("after /24 delete should fall back to /16: %d", v)
	}
	if !tbl.Delete(ip(10, 1, 0, 0), 16) {
		t.Fatal("delete /16 failed")
	}
	if v, _ := tbl.Lookup(ip(10, 1, 2, 200)); v != 1 {
		t.Fatalf("after /16 delete should fall back to /8: %d", v)
	}
	if !tbl.Delete(ip(10, 0, 0, 0), 8) {
		t.Fatal("delete /8 failed")
	}
	if _, ok := tbl.Lookup(ip(10, 1, 2, 200)); ok {
		t.Fatal("after all deletes there should be no match")
	}
	if tbl.Delete(ip(10, 0, 0, 0), 8) {
		t.Fatal("double delete must report false")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len after deletes: %d", tbl.Len())
	}
}

func TestDeleteKeepsLongerPrefixes(t *testing.T) {
	tbl := newWithStride(16)
	tbl.Insert(ip(10, 0, 0, 0), 8, 1)
	tbl.Insert(ip(10, 1, 0, 0), 16, 2)
	if !tbl.Delete(ip(10, 0, 0, 0), 8) {
		t.Fatal("delete failed")
	}
	if v, ok := tbl.Lookup(ip(10, 1, 5, 5)); !ok || v != 2 {
		t.Fatalf("longer prefix lost after covering delete: %d %v", v, ok)
	}
	if _, ok := tbl.Lookup(ip(10, 2, 0, 1)); ok {
		t.Fatal("deleted /8 should no longer match")
	}
}

func TestPrefixesListing(t *testing.T) {
	tbl := newWithStride(16)
	tbl.Insert(ip(10, 0, 0, 0), 8, 1)
	tbl.Insert(ip(10, 1, 0, 0), 16, 2)
	ps := tbl.Prefixes()
	if len(ps) != 2 {
		t.Fatalf("prefixes %v", ps)
	}
	if ps[0].String() != "10.0.0.0/8" || ps[1].String() != "10.1.0.0/16" {
		t.Fatalf("prefix strings %v %v", ps[0], ps[1])
	}
}

// TestDifferentialAgainstReference inserts, deletes, and looks up random
// prefixes, comparing the DIR-24-8 structure against the linear-scan
// reference on every step.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tbl := newWithStride(16)
	ref := &Reference{}
	type pfx struct {
		addr uint32
		len  int
	}
	var installed []pfx
	const ops = 400
	for i := 0; i < ops; i++ {
		switch {
		case len(installed) == 0 || rng.Intn(4) != 0:
			length := rng.Intn(tbl.maxPrefixLen() + 1)
			addr := rng.Uint32()
			value := uint32(rng.Intn(1000))
			if err := tbl.Insert(addr, length, value); err != nil {
				t.Fatal(err)
			}
			ref.Insert(addr, length, value)
			installed = append(installed, pfx{maskAddr(addr, length), length})
		default:
			k := rng.Intn(len(installed))
			p := installed[k]
			got := tbl.Delete(p.addr, p.len)
			want := ref.Delete(p.addr, p.len)
			if got != want {
				t.Fatalf("delete(%#x/%d) = %v, reference %v", p.addr, p.len, got, want)
			}
			installed = append(installed[:k], installed[k+1:]...)
		}
		// Probe a batch of random addresses plus the bases of installed prefixes.
		for j := 0; j < 20; j++ {
			addr := rng.Uint32()
			if j < len(installed) {
				addr = installed[j].addr | uint32(rng.Intn(256))
			}
			gv, gok := tbl.Lookup(addr)
			wv, wok := ref.Lookup(addr)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("step %d: Lookup(%#x) = %d,%v reference %d,%v", i, addr, gv, gok, wv, wok)
			}
		}
	}
}

func TestLookupMatchesReferenceProperty(t *testing.T) {
	tbl := newWithStride(16)
	ref := &Reference{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		addr := rng.Uint32()
		length := rng.Intn(25)
		val := uint32(i)
		tbl.Insert(addr, length, val)
		ref.Insert(addr, length, val)
	}
	f := func(addr uint32) bool {
		gv, gok := tbl.Lookup(addr)
		wv, wok := ref.Lookup(addr)
		return gok == wok && (!gok || gv == wv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLookupDIR248 resolves bursts of 32 addresses with LookupBatch
// over the l3_uniform routing table, 4,096 addresses inside its routes
// visited in a seeded permutation, so the first-level loads land all over
// tbl24 as they do in the switch and its TLB misses show.
func BenchmarkLookupDIR248(b *testing.B) {
	routes := workload.GenerateRoutes(10000, 8, 2016)
	tbl := New()
	for _, r := range routes {
		if err := tbl.Insert(uint32(r.Addr), r.Prefix, r.NextHop); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 4096)
	for i, k := range rng.Perm(len(addrs)) {
		addrs[i] = uint32(workload.AddressInside(routes[k%len(routes)], k))
	}
	const burst = 32
	values := make([]uint32, burst)
	depths := make([]uint8, burst)
	hits := make([]bool, burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * burst % len(addrs)
		tbl.LookupBatch(addrs[off:off+burst], values, depths, hits)
	}
}

func BenchmarkInsert(b *testing.B) {
	tbl := newWithStride(16)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(rng.Uint32(), 8+rng.Intn(17), uint32(i%1000))
	}
}

func TestLookupBatchMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := newWithStride(16)
	for i := 0; i < 5000; i++ {
		tbl.Insert(rng.Uint32(), 8+rng.Intn(17), uint32(i%1000))
	}
	addrs := make([]uint32, 300)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	values := make([]uint32, len(addrs))
	depths := make([]uint8, len(addrs))
	hits := make([]bool, len(addrs))
	tbl.LookupBatch(addrs, values, depths, hits)
	for i, addr := range addrs {
		wantV, wantD, wantOK := tbl.Resolve(addr, tbl.Probe1(addr))
		if hits[i] != wantOK || values[i] != wantV || int(depths[i]) != wantD {
			t.Fatalf("addr %08x: batch (%d,%d,%v) != single (%d,%d,%v)",
				addr, values[i], depths[i], hits[i], wantV, wantD, wantOK)
		}
	}
}

// TestDeleteRecyclesGroups churns /16–/32 prefixes in a few /24s, checking
// every address there against the reference after each operation, then
// deletes everything: a group whose last prefix longer than the stride is
// gone must be folded back into its first-level entry and freed.
func TestDeleteRecyclesGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	tbl := New()
	ref := &Reference{}
	bases := []uint32{ip(10, 1, 2, 0), ip(10, 1, 3, 0), ip(10, 1, 200, 0), ip(192, 0, 2, 0)}
	var installed []prefixKey
	check := func(step int) {
		t.Helper()
		for _, base := range bases {
			for b := uint32(0); b < 256; b++ {
				gv, gok := tbl.Lookup(base | b)
				wv, wok := ref.Lookup(base | b)
				if gok != wok || gv != wv {
					t.Fatalf("step %d: Lookup(%#x) = %d,%v reference %d,%v", step, base|b, gv, gok, wv, wok)
				}
			}
		}
	}
	for step := 0; step < 600; step++ {
		if len(installed) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(installed))
			key := installed[k]
			installed = append(installed[:k], installed[k+1:]...)
			if !tbl.Delete(key.addr, int(key.len)) || !ref.Delete(key.addr, int(key.len)) {
				t.Fatalf("step %d: delete %#x/%d reported absent", step, key.addr, key.len)
			}
		} else {
			plen := 16 + rng.Intn(17)
			addr := maskAddr(bases[rng.Intn(len(bases))]|uint32(rng.Intn(256)), plen)
			if _, ok := tbl.Get(addr, plen); !ok {
				installed = append(installed, prefixKey{addr, uint8(plen)})
			}
			value := uint32(rng.Intn(1000))
			if err := tbl.Insert(addr, plen, value); err != nil {
				t.Fatal(err)
			}
			ref.Insert(addr, plen, value)
		}
		check(step)
	}
	for _, key := range installed {
		tbl.Delete(key.addr, int(key.len))
		ref.Delete(key.addr, int(key.len))
		check(-1)
	}
	if tbl.Len() != 0 || tbl.SecondLevelGroups() != 0 {
		t.Fatalf("empty table holds %d prefixes and %d groups", tbl.Len(), tbl.SecondLevelGroups())
	}
}

// FuzzTableOps drives byte-coded inserts, replaces, deletes, lookups, batch
// lookups and clones over prefixes crowded into a few /16s of a stride-16
// table, so /17–/24 prefixes allocate and recycle groups.  After every
// operation the table must agree with the reference on every /24 of those
// /16s (lengths stop at /24, so one address per /24 decides it), use
// exactly one group per first-level slot holding a prefix longer than the
// stride, and hold per-/8 prefix counts equal to a recount of Prefixes().
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 20, 5, 0, 0, 24, 5, 2, 0, 20, 5, 2, 0, 24, 5, 0, 1, 8, 0, 5, 1, 17, 9})
	rng := rand.New(rand.NewSource(38))
	for _, size := range []int{64, 256} {
		seed := make([]byte, size)
		rng.Read(seed)
		f.Add(seed)
	}
	// Beside 10/8 and 172/8, a neighbouring /8 (11/8) and two distant ones
	// (0/8, 240/8), so that prefixes shorter than /8 span several regions of
	// the per-/8 counts.
	bases := []uint32{ip(10, 0, 0, 0), ip(10, 1, 0, 0), ip(10, 200, 0, 0), ip(172, 16, 0, 0),
		ip(11, 0, 0, 0), ip(0, 0, 0, 0), ip(240, 0, 0, 0)}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := newWithStride(16)
		ref := &Reference{}
		check := func(op int) {
			for _, base := range bases {
				for b := uint32(0); b < 256; b++ {
					gv, gok := tbl.Lookup(base | b<<8)
					wv, wok := ref.Lookup(base | b<<8)
					if gok != wok || gv != wv {
						t.Fatalf("op %d: Lookup(%#x) = %d,%v reference %d,%v", op, base|b<<8, gv, gok, wv, wok)
					}
				}
			}
			deep := map[uint32]bool{}
			for _, p := range ref.prefixes {
				if p.Len > tbl.Stride() {
					deep[p.Addr>>16] = true
				}
			}
			if tbl.Len() != len(ref.prefixes) || tbl.SecondLevelGroups() != len(deep) {
				t.Fatalf("op %d: %d prefixes in %d groups, reference %d prefixes under %d deep slots",
					op, tbl.Len(), tbl.SecondLevelGroups(), len(ref.prefixes), len(deep))
			}
			var counts [256][33]uint32
			for _, p := range tbl.Prefixes() {
				counts[p.Addr>>24][p.Len]++
			}
			if counts != tbl.counts {
				t.Fatalf("op %d: the per-/8 prefix counts differ from a recount of Prefixes()", op)
			}
		}
		for i, ops := 0, data; len(ops) >= 4; i, ops = i+1, ops[4:] {
			plen := int(ops[2]) % 25
			addr := maskAddr(bases[int(ops[1])%len(bases)]|uint32(ops[3])<<8, plen)
			switch ops[0] % 6 {
			case 0: // insert, or replace when the prefix is stored
				tbl.Insert(addr, plen, uint32(i))
				ref.Insert(addr, plen, uint32(i))
			case 1: // replace a stored prefix
				if len(ref.prefixes) > 0 {
					p := ref.prefixes[int(ops[3])%len(ref.prefixes)]
					tbl.Insert(p.Addr, p.Len, p.Value|1<<23)
					ref.Insert(p.Addr, p.Len, p.Value|1<<23)
				}
			case 2:
				if got, want := tbl.Delete(addr, plen), ref.Delete(addr, plen); got != want {
					t.Fatalf("op %d: delete %#x/%d = %v, reference %v", i, addr, plen, got, want)
				}
			case 3: // a host address inside the prefix
				host := addr | ^maskAddr(invalid, plen)&(uint32(ops[3])*0x01010101)
				gv, gok := tbl.Lookup(host)
				wv, wok := ref.Lookup(host)
				if gok != wok || gv != wv {
					t.Fatalf("op %d: Lookup(%#x) = %d,%v reference %d,%v", i, host, gv, gok, wv, wok)
				}
			case 4: // a batch of neighbouring /24s, across group boundaries
				addrs := make([]uint32, 1+int(ops[3])%64)
				for j := range addrs {
					addrs[j] = addr + uint32(j)<<8
				}
				values, depths, hits := make([]uint32, len(addrs)), make([]uint8, len(addrs)), make([]bool, len(addrs))
				tbl.LookupBatch(addrs, values, depths, hits)
				for j, a := range addrs {
					wv, wok := ref.Lookup(a)
					if hits[j] != wok || values[j] != wv {
						t.Fatalf("op %d: batch Lookup(%#x) = %d,%v reference %d,%v", i, a, values[j], hits[j], wv, wok)
					}
				}
			case 5: // carry on with a clone, then mutate the original
				orig := tbl
				tbl = tbl.Clone()
				orig.Insert(addr, plen, valueMask)
				for _, p := range ref.prefixes {
					orig.Delete(p.Addr, p.Len)
				}
			}
			check(i)
		}
	})
}

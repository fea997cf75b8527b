package exacthash

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestInsertLookupDelete(t *testing.T) {
	tbl := New(16)
	k1 := Key{W0: 1, W1: 2}
	k2 := Key{W0: 1, W1: 3}
	tbl.Insert(k1, 100)
	tbl.Insert(k2, 200)
	if v, ok := tbl.Lookup(k1); !ok || v != 100 {
		t.Fatalf("k1: %d %v", v, ok)
	}
	if v, ok := tbl.Lookup(k2); !ok || v != 200 {
		t.Fatalf("k2: %d %v", v, ok)
	}
	if _, ok := tbl.Lookup(Key{W0: 9}); ok {
		t.Fatal("missing key found")
	}
	if tbl.Len() != 2 {
		t.Fatalf("len %d", tbl.Len())
	}
	// Replacement keeps the count.
	tbl.Insert(k1, 111)
	if v, _ := tbl.Lookup(k1); v != 111 || tbl.Len() != 2 {
		t.Fatalf("replace: %d len %d", v, tbl.Len())
	}
	if !tbl.Delete(k1) || tbl.Delete(k1) {
		t.Fatal("delete semantics broken")
	}
	if _, ok := tbl.Lookup(k1); ok {
		t.Fatal("deleted key still found")
	}
	if tbl.Len() != 1 {
		t.Fatalf("len after delete %d", tbl.Len())
	}
}

func TestManyKeysAgainstMap(t *testing.T) {
	tbl := New(4)
	ref := make(map[Key]uint32)
	rng := rand.New(rand.NewSource(99))
	const n = 20000
	for i := 0; i < n; i++ {
		k := Key{W0: rng.Uint64(), W1: uint64(rng.Intn(5)), W2: uint64(i % 7)}
		v := uint32(rng.Intn(1 << 20))
		tbl.Insert(k, v)
		ref[k] = v
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("len %d ref %d", tbl.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := tbl.Lookup(k)
		if !ok || got != v {
			t.Fatalf("key %v: got %d,%v want %d", k, got, ok, v)
		}
	}
	// Delete half and re-verify.
	i := 0
	for k := range ref {
		if i%2 == 0 {
			if !tbl.Delete(k) {
				t.Fatalf("delete %v failed", k)
			}
			delete(ref, k)
		}
		i++
	}
	for k, v := range ref {
		if got, ok := tbl.Lookup(k); !ok || got != v {
			t.Fatalf("after delete, key %v: got %d,%v want %d", k, got, ok, v)
		}
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("len after deletes %d want %d", tbl.Len(), len(ref))
	}
}

func TestForEachVisitsAll(t *testing.T) {
	tbl := New(8)
	want := map[Key]uint32{}
	for i := 0; i < 100; i++ {
		k := Key{W0: uint64(i)}
		tbl.Insert(k, uint32(i*3))
		want[k] = uint32(i * 3)
	}
	got := map[Key]uint32{}
	tbl.forEach(func(k Key, v uint32) { got[k] = v })
	if len(got) != len(want) {
		t.Fatalf("forEach visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %v value %d want %d", k, got[k], v)
		}
	}
}

func TestGrowthAndFootprint(t *testing.T) {
	tbl := New(4)
	before := tbl.NumBuckets()
	for i := 0; i < 1000; i++ {
		tbl.Insert(Key{W0: uint64(i), W3: 7}, uint32(i))
	}
	if tbl.NumBuckets() <= before {
		t.Fatal("table did not grow")
	}
	if tbl.Rebuilds() == 0 {
		t.Fatal("expected at least one rebuild")
	}
	if tbl.MemoryFootprint() <= 0 {
		t.Fatal("footprint must be positive")
	}
	if tbl.String() == "" {
		t.Fatal("String empty")
	}
}

// keyFamilies are structured key sets of the shapes the compound-hash
// template packs: MACs, IPv4 hosts and prefixes, address/port pairs, 5-tuples
// split over two words, and keys living in the upper words only.  Each maps
// the i-th draw to a key.
var keyFamilies = []struct {
	name string
	key  func(i int) Key
}{
	{"mac-seq", func(i int) Key { return Key{W0: 0x020000000000 + uint64(i)} }},
	{"mac-rand", func(i int) Key { return Key{W0: splitmix(uint64(i)) & (1<<48 - 1)} }},
	{"mac-strided", func(i int) Key { return Key{W0: 0x020000000000 + uint64(i)<<24} }},
	{"ip-host", func(i int) Key { return Key{W0: 10<<24 | uint64(i)} }},
	{"ip-slash24", func(i int) Key { return Key{W0: 10<<24 | uint64(i)<<8} }},
	{"ip-port", func(i int) Key { return Key{W0: (10<<24 | uint64(i/16)) | uint64(80+i%16)<<32} }},
	{"five-tuple", func(i int) Key {
		return Key{W0: (10<<24 | uint64(i%256)) | (192<<24|uint64(i/256))<<32, W1: uint64(1024+i%7) | 443<<16 | 6<<32}
	}},
	{"w3-only", func(i int) Key { return Key{W3: uint64(i)} }},
	{"w1-w2-split", func(i int) Key { return Key{W1: uint64(i&0xff) << 56, W2: uint64(i >> 8)} }},
	{"vlan-ip", func(i int) Key { return Key{W0: uint64(1+i%64) | (10<<24|uint64(i/64))<<12} }},
	{"w0-w1-equal", func(i int) Key { return Key{W0: uint64(i), W1: uint64(i)} }},
}

// splitmix is a SplitMix64 step: the i-th output of a seeded random stream.
func splitmix(i uint64) uint64 {
	x := i*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// TestDesignLoadPlacesWithoutRebuild holds the table to the load New sizes it
// for: n distinct structured keys inserted into New(n) must all place
// without a rebuild, so the table keeps the bucket count it was sized with.
func TestDesignLoadPlacesWithoutRebuild(t *testing.T) {
	for _, fam := range keyFamilies {
		for _, n := range []int{100, 500, 1000, 2000, 4096, 10000, 30000} {
			t.Run(fmt.Sprintf("%s/%d", fam.name, n), func(t *testing.T) {
				tbl := New(n)
				buckets := tbl.NumBuckets()
				seen := make(map[Key]bool, n)
				for i := 0; len(seen) < n; i++ {
					k := fam.key(i)
					if seen[k] {
						continue
					}
					seen[k] = true
					tbl.Insert(k, uint32(i))
				}
				if tbl.Rebuilds() != 0 || tbl.NumBuckets() != buckets {
					t.Fatalf("%d keys: %d rebuilds, %d → %d buckets", n, tbl.Rebuilds(), buckets, tbl.NumBuckets())
				}
				if tbl.Len() != n {
					t.Fatalf("len %d want %d", tbl.Len(), n)
				}
			})
		}
	}
}

// TestTagCollisionsFallThrough holds the tag-first probe to the keys, not the
// tags: keys sharing the zero key's tag and both its buckets' first one all
// hit, a deleted lane stops no scan, and the zero key misses until it is
// inserted.  It also holds the SWAR lane test to a lane-by-lane reference,
// so no lane borrows a match from its neighbour.
func TestTagCollisionsFallThrough(t *testing.T) {
	for _, lanes := range [][4]uint64{{0, 1, 0, 1}, {1, 0, 0xffff, 0}, {0x8000, 0, 0x7fff, 0}, {0, 0, 0, 0}, {2, 0, 1, 0x8001}} {
		var w, want uint64
		for i, l := range lanes {
			w |= l << (16 * i)
			if l == 0 {
				want |= 0x8000 << (16 * i)
			}
		}
		if got := zeroLanes(w); got != want {
			t.Fatalf("zeroLanes(%#016x) = %#016x, want %#016x", w, got, want)
		}
	}

	tbl := New(4)
	var zero Key
	h0, _ := zero.hash(tbl.seed)
	b0, tag := h0&tbl.mask, laneTag(h0)
	var mates []Key // keys with the zero key's tag and first bucket
	for i := uint64(1); len(mates) < 2; i++ {
		k := Key{W0: i}
		if h, _ := k.hash(tbl.seed); h&tbl.mask == b0 && laneTag(h) == tag {
			mates = append(mates, k)
		}
	}
	a, b := mates[0], mates[1]
	tbl.Insert(a, 1)
	tbl.Insert(b, 2)
	if n := bits.OnesCount64(zeroLanes(tbl.tags[b0] ^ tag*laneOnes)); n != 2 {
		t.Fatalf("bucket %d holds %d lanes of tag %#x, want 2", b0, n, tag)
	}
	want := func(k Key, v uint32, ok bool) {
		t.Helper()
		if got, gotOK := tbl.Lookup(k); got != v || gotOK != ok {
			t.Fatalf("lookup %v: got %d,%v want %d,%v", k, got, gotOK, v, ok)
		}
	}
	want(a, 1, true)
	want(b, 2, true)
	want(zero, 0, false)
	if !tbl.Delete(a) {
		t.Fatal("delete of a stored key failed")
	}
	want(a, 0, false)
	want(b, 2, true)
	want(zero, 0, false) // a's slot keeps a's key under an empty lane
	tbl.Insert(zero, 3)
	want(zero, 3, true)
	want(b, 2, true)
	if tbl.Rebuilds() != 0 || tbl.Len() != 2 {
		t.Fatalf("%d rebuilds, len %d: the probe was to run on the original layout", tbl.Rebuilds(), tbl.Len())
	}
}

// FuzzTableOps drives a table through a byte-coded sequence of inserts,
// replacements, deletes, single lookups, batched lookups and grace periods
// over keys from keyFamilies, and holds it to a Go map after every
// operation.  The first byte sizes the table small, so the sequences reach
// the displacement walk and the re-seeding rebuild.  The first grace-period
// op publishes the table, so later deletes retire lanes, later grace
// periods reclaim them and inserts into full buckets reuse them or fail; a
// failed insert rebuilds the table from the map and publishes it.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 3, 0, 1, 4, 0, 0, 2, 0, 0, 3, 0, 1})
	rng := rand.New(rand.NewSource(30))
	for _, size := range []int{64, 256} {
		seed := make([]byte, size)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tbl := New(int(data[0] % 32))
		ref := make(map[Key]uint32)
		keyOf := func(fam, idx byte) Key {
			return keyFamilies[int(fam)%len(keyFamilies)].key(int(idx))
		}
		check := func(k Key) {
			got, ok := tbl.Lookup(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("lookup %v: got %d,%v want %d,%v", k, got, ok, want, wantOK)
			}
		}
		// insert stores k; when a published table cannot place it, the
		// table is rebuilt off to the side and published, as the
		// compound-hash template's caller does.
		insert := func(k Key, v uint32) {
			_, stored := ref[k]
			ref[k] = v
			if tbl.Insert(k, v) {
				return
			}
			if stored || tbl.quiesce == nil {
				t.Fatalf("insert %v failed: stored %v, published %v", k, stored, tbl.quiesce != nil)
			}
			tbl = New(len(ref))
			for k, v := range ref {
				tbl.Insert(k, v)
			}
			tbl.Publish(func() {})
		}
		var sc BatchScratch
		for i, ops := 0, data[1:]; len(ops) >= 3; i, ops = i+1, ops[3:] {
			op, k := ops[0]%6, keyOf(ops[1], ops[2])
			switch op {
			case 0: // insert
				insert(k, uint32(i))
			case 1: // replace a stored key, or insert when the key is new
				insert(k, uint32(i)|1<<31)
			case 2:
				_, had := ref[k]
				if got := tbl.Delete(k); got != had {
					t.Fatalf("delete %v: got %v want %v", k, got, had)
				}
				delete(ref, k)
			case 3:
				check(k)
			case 4: // a batch of neighbouring keys, some stored, some not
				keys := make([]Key, 1+int(ops[2])%batchChunk*2)
				for j := range keys {
					keys[j] = keyOf(ops[1], ops[2]+byte(j))
				}
				values, hits := make([]uint32, len(keys)), make([]bool, len(keys))
				tbl.LookupBatch(keys, values, hits, &sc)
				for j, k := range keys {
					want, wantOK := ref[k]
					if hits[j] != wantOK || values[j] != want && wantOK {
						t.Fatalf("batch %v: got %d,%v want %d,%v", k, values[j], hits[j], want, wantOK)
					}
				}
			case 5: // publish the table, or let a grace period pass
				if tbl.quiesce == nil {
					tbl.Publish(func() {})
				} else {
					tbl.reclaim()
				}
			}
			if tbl.Len() != len(ref) {
				t.Fatalf("op %d: len %d want %d", i, tbl.Len(), len(ref))
			}
			check(k)
		}
		seen := make(map[Key]uint32, len(ref))
		tbl.forEach(func(k Key, v uint32) {
			if _, dup := seen[k]; dup {
				t.Fatalf("forEach visited %v twice", k)
			}
			seen[k] = v
		})
		if !maps.Equal(seen, ref) {
			t.Fatalf("forEach saw %d entries, want %d", len(seen), len(ref))
		}
	})
}

func TestInsertLookupProperty(t *testing.T) {
	tbl := New(64)
	f := func(w0, w1, w2, w3 uint64, v uint32) bool {
		k := Key{w0, w1, w2, w3}
		tbl.Insert(k, v)
		got, ok := tbl.Lookup(k)
		return ok && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tbl := New(1024)
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = Key{W0: uint64(i) * 0x9e3779b9, W1: uint64(i)}
		tbl.Insert(keys[i], uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(keys[i&1023])
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	tbl := New(1024)
	for i := 0; i < 1024; i++ {
		tbl.Insert(Key{W0: uint64(i)}, uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(Key{W0: uint64(i) | 1<<40})
	}
}

func BenchmarkInsert(b *testing.B) {
	tbl := New(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(Key{W0: uint64(i)}, uint32(i))
	}
}

// BenchmarkLookupBatch looks up 1000 random 48-bit keys (MAC-shaped) in
// 32-key chunks at the design load of New(1000): the shape the compound-hash
// template's burst lookup drives.  It reports ns per key.
func BenchmarkLookupBatch(b *testing.B) {
	const n, chunk = 1000, 32
	rng := rand.New(rand.NewSource(1))
	tbl := New(n)
	keys := make([]Key, 0, n)
	for len(keys) < n {
		k := Key{W0: rng.Uint64() & (1<<48 - 1)}
		if _, dup := tbl.Lookup(k); dup {
			continue
		}
		tbl.Insert(k, uint32(len(keys)))
		keys = append(keys, k)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	values, hits := make([]uint32, chunk), make([]bool, chunk)
	var sc BatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := i * chunk % (n - chunk)
		tbl.LookupBatch(keys[base:base+chunk], values, hits, &sc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/key")
}

func TestLookupBatchMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := New(256)
	keys := make([]Key, 0, 400)
	for i := 0; i < 300; i++ {
		k := Key{W0: rng.Uint64(), W1: rng.Uint64() & 0xffff}
		tbl.Insert(k, uint32(i))
		keys = append(keys, k)
	}
	// Mix in keys that are not in the table.
	for i := 0; i < 100; i++ {
		keys = append(keys, Key{W0: rng.Uint64(), W2: 1})
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	values := make([]uint32, len(keys))
	hits := make([]bool, len(keys))
	var sc BatchScratch
	// len(keys) > batchChunk exercises the chunking path.
	tbl.LookupBatch(keys, values, hits, &sc)
	for i, k := range keys {
		wantV, wantOK := tbl.Lookup(k)
		if hits[i] != wantOK || (wantOK && values[i] != wantV) {
			t.Fatalf("key %d: batch (%d,%v) != single (%d,%v)", i, values[i], hits[i], wantV, wantOK)
		}
		h1, h2 := tbl.Hash(k)
		if v, ok := tbl.LookupPrehashed(k, h1, h2); ok != wantOK || (ok && v != wantV) {
			t.Fatalf("key %d: prehashed (%d,%v) != single (%d,%v)", i, v, ok, wantV, wantOK)
		}
	}
}

// TestRetiredLaneHeldUntilGracePeriod holds a published table to its reuse
// rule: a reader that found a key's slot before the key was deleted may
// still compare that slot's key and load its value, so until a grace period
// has passed no insert may write into the slot, however full the buckets.
func TestRetiredLaneHeldUntilGracePeriod(t *testing.T) {
	tbl := New(16)
	keys := make([]Key, 48)
	for i := range keys {
		keys[i] = Key{W0: splitmix(uint64(i))}
		tbl.Insert(keys[i], uint32(i))
	}
	graces := 0
	tbl.Publish(func() { graces++ })
	for victim := range keys {
		h1, h2 := tbl.Hash(keys[victim])
		b, i := tbl.find(keys[victim], h1, h2) // a reader's probe, held
		if i < 0 || !tbl.Delete(keys[victim]) {
			continue // not placed since the table was published
		}
		before := graces
		for j := 0; j < 64 && graces == before; j++ {
			tbl.Insert(Key{W0: splitmix(uint64(1000*victim + j)), W1: 1}, 1<<20)
		}
		if s := tbl.buckets[b].slots[i]; graces == before && (s.key != keys[victim] || s.value != uint32(victim)) {
			t.Fatalf("key %d's slot was rewritten to %v without a grace period", victim, s)
		}
		tbl.reclaim() // the reader has left
	}
	if graces == 0 {
		t.Fatal("no insert needed a retired lane")
	}
}

// TestConcurrentReaders runs two readers, one batched and one per key,
// against a writer that inserts and deletes keys of a published table kept
// near full, so deleted lanes are retired, reclaimed and reused while the
// readers probe them.  Every key carries its own value, so a lookup must
// return that value or miss.  Under the race detector it also holds the
// writer to its store order: a key and value written into a lane after its
// tag, or into a retired lane before a grace period, race with the readers.
func TestConcurrentReaders(t *testing.T) {
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = Key{W0: splitmix(uint64(i)), W1: uint64(i)}
	}
	tbl := New(16)
	readers := make([]atomic.Uint64, 2)
	tbl.Publish(func() {
		for i := range readers {
			if v := readers[i].Load(); v&1 != 0 {
				for readers[i].Load() == v {
					runtime.Gosched()
				}
			}
		}
	})
	var stop atomic.Bool
	var batches atomic.Int64
	errs := make(chan error, len(readers))
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			batch := make([]Key, 32)
			values, hits := make([]uint32, len(batch)), make([]bool, len(batch))
			var sc BatchScratch
			for !stop.Load() {
				for i := range batch {
					batch[i] = keys[rng.Intn(len(keys))]
				}
				readers[r].Add(1)
				if r == 0 {
					tbl.LookupBatch(batch, values, hits, &sc)
				} else {
					for i, k := range batch {
						values[i], hits[i] = tbl.Lookup(k)
					}
				}
				readers[r].Add(1)
				for i, k := range batch {
					if hits[i] && values[i] != uint32(k.W1) {
						errs <- fmt.Errorf("Lookup(%v) = %d, want %d or a miss", k, values[i], k.W1)
						return
					}
				}
				batches.Add(1)
			}
		}(r)
	}
	for batches.Load() < int64(len(readers)) && len(errs) == 0 {
		runtime.Gosched()
	}
	rng := rand.New(rand.NewSource(52))
	for op := 0; op < 40000 && len(errs) == 0; op++ {
		k := keys[rng.Intn(len(keys))]
		if !tbl.Delete(k) {
			tbl.Insert(k, uint32(k.W1)) // both buckets full: the key stays out
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

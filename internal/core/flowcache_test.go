package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/workload"
)

// The acceptance tests of the per-worker verdict cache: cache-on runs must be
// observationally identical to the plain burst path (verdicts, rewritten
// headers, metadata — with the second pass served from the cache), stale
// generations must never be served after a flow-mod's synchronize returns,
// the hit/miss/stale counters must account for every packet, and the cache
// must arm — on the compiled key — exactly where the compiler says it does.

// TestCacheEntryLayout pins the size contract the probe relies on: the hot
// part of an entry (everything but the patch) fits one cache line and the
// padded entry stride keeps hot lines line-aligned.  Counter pointers live in
// the cache's parallel ctrs array, not the entry, so the stride is the same
// whether or not the datapath counts.
func TestCacheEntryLayout(t *testing.T) {
	var e cacheEntry
	if got := unsafe.Sizeof(e); got != 128 {
		t.Fatalf("cacheEntry is %d bytes, want 128", got)
	}
	if off := unsafe.Offsetof(e.patch); off != 64 {
		t.Fatalf("patch starts at offset %d, want 64", off)
	}
}

// checkTags holds the cache's tags array to its entries: every valid entry's
// tag is its key's probe hash, so a tag-first probe finds every live key.
func checkTags(t *testing.T, fc *FlowCache) {
	t.Helper()
	for i := range fc.entries {
		if e := &fc.entries[i]; e.flags&cacheValid != 0 && fc.tags[i] != e.key.hash() {
			t.Fatalf("entry %d: tag %#x, key %v hashes to %#x", i, fc.tags[i], e.key, e.key.hash())
		}
	}
}

// TestFlowCacheProbeInstall unit-tests the set-associative structure
// directly: install/lookup round trips, generation mismatches reported as
// stale, in-place refresh of an existing key, and clock victim selection
// once a set fills, whatever the entries' generations.  The keys are found by
// search to share one set, and each is probed and installed under its own
// hash.
func TestFlowCacheProbeInstall(t *testing.T) {
	fc := newFlowCache(256, false) // 64 sets x 4 ways
	k := flowKey{1, 2, 3, 4, 5}
	base := (k.hash() & fc.mask) * flowCacheWays
	same := setMates(fc, k.hash()&fc.mask, 100, flowCacheWays+1)
	lookup := func(k *flowKey, sn *snapshot) (*cacheEntry, uint32, bool) { return fc.lookup(k.hash(), k, sn) }
	install := func(k *flowKey, gen uint64, flags uint8, out uint32, tables uint8) {
		fc.install(k.hash(), k, gen, stageSet{1, 1, 1, 1}, flags, out, tables, 0, &writeSet{}, nil, 0)
		checkTags(t, fc)
	}
	// Snapshots whose every bump was a barrier: no older entry is served.
	gen := func(g uint64) *snapshot { return &snapshot{gen: g, stamps: stageStamps{barrier: g}} }
	if e, _, stale := lookup(&k, gen(1)); e != nil || stale {
		t.Fatal("empty cache returned an entry")
	}
	install(&k, 1, cacheValid|cacheHasPort, 7, 2)
	e, _, stale := lookup(&k, gen(1))
	if e == nil || stale || e.out != 7 || e.tables != 2 {
		t.Fatalf("lookup after install: %+v stale=%v", e, stale)
	}
	// Same key, retired generation: nil + stale sighting.
	if e, _, stale := lookup(&k, gen(2)); e != nil || !stale {
		t.Fatalf("stale entry served or not reported: %v %v", e, stale)
	}
	// Reinstall under the new generation refreshes in place (no second copy).
	install(&k, 2, cacheValid|cacheHasPort, 9, 2)
	if e, _, _ := lookup(&k, gen(2)); e == nil || e.out != 9 {
		t.Fatalf("refresh in place failed: %+v", e)
	}
	live := 0
	for i := range fc.entries {
		if fc.entries[i].flags&cacheValid != 0 {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("refresh duplicated the entry: %d live", live)
	}
	// Fill the rest of the set at generation 2; k, in way 0, has been hit
	// once since its install.  A fresh key at generation 3 finds no invalid
	// way, so the clock picks, not the age: the hand takes way 0's hit back
	// and evicts way 1, never hit.
	for i := 0; i < flowCacheWays-1; i++ {
		install(&same[i], 2, cacheValid, 0, 1)
	}
	kNew := same[flowCacheWays-1]
	install(&kNew, 3, cacheValid|cacheHasPort, 11, 1)
	if e, _, _ := lookup(&kNew, gen(3)); e == nil || e.out != 11 {
		t.Fatalf("install into a full set failed: %+v", e)
	}
	if wayOf(fc, base, &k) != 0 || wayOf(fc, base, &same[0]) >= 0 || wayOf(fc, base, &kNew) != 1 {
		t.Fatal("the clock did not take the never-hit way 1")
	}
	// An old generation is no reason to go.  Refresh ways 2 and 3 under
	// generation 4, then hit k — two generations older — under a snapshot
	// whose mods, on stage bucket 2, reached none of its stages: it is
	// served as it is, keeping its install generation.  The next install's
	// hand, at way 2, evicts the fresh never-hit way there, not the oldest.
	install(&same[1], 4, cacheValid|cacheHasPort, 12, 1)
	install(&same[2], 4, cacheValid|cacheHasPort, 13, 1)
	if e, _, _ := lookup(&k, &snapshot{gen: 4, stamps: stageStamps{at: [stageBuckets]uint64{bucketAll: 4, 2: 4}}}); e == nil || e.gen != 2 {
		t.Fatalf("a clean entry was not served at its own generation: %+v", e)
	}
	install(&same[flowCacheWays], 5, cacheValid, 0, 1)
	if wayOf(fc, base, &same[1]) >= 0 || wayOf(fc, base, &same[flowCacheWays]) != 2 {
		t.Fatal("the clock did not take the never-hit way 2")
	}
	for _, kept := range []*flowKey{&k, &kNew, &same[2]} {
		if wayOf(fc, base, kept) < 0 {
			t.Fatalf("entry %v, hit or newer than the victim, was evicted", *kept)
		}
	}
	live = 0
	for i := range fc.entries {
		if fc.entries[i].flags&cacheValid != 0 {
			live++
		}
	}
	if live != flowCacheWays {
		t.Fatalf("full set grew or shrank: %d live, want %d", live, flowCacheWays)
	}

	// Forced collisions: distinct keys installed under one shared hash fill
	// a set with equal tags, so only the key compare tells them apart.  Each
	// must find its own entry, a refresh must land on its own way, and once
	// one is evicted it must miss rather than match a set-mate's tag.
	fc = newFlowCache(256, false)
	const h = 0x1234
	var coll [flowCacheWays + 1]flowKey
	for i := range coll {
		coll[i] = flowKey{0: 500 + uint64(i)}
	}
	for i := 0; i < flowCacheWays; i++ {
		fc.install(h, &coll[i], 1, stageSet{}, cacheValid|cacheHasPort, 20+uint32(i), 1, 0, &writeSet{}, nil, 0)
	}
	fc.install(h, &coll[2], 1, stageSet{}, cacheValid|cacheHasPort, 30, 1, 0, &writeSet{}, nil, 0)
	for i := 0; i < flowCacheWays; i++ {
		want := 20 + uint32(i)
		if i == 2 {
			want = 30
		}
		if e, _, _ := fc.lookup(h, &coll[i], gen(1)); e == nil || e.key != coll[i] || e.out != want {
			t.Fatalf("colliding key %d: got %+v, want out %d", i, e, want)
		}
	}
	fc.install(h, &coll[flowCacheWays], 2, stageSet{}, cacheValid|cacheHasPort, 40, 1, 0, &writeSet{}, nil, 0)
	if e, _, _ := fc.lookup(h, &coll[flowCacheWays], gen(2)); e == nil || e.out != 40 {
		t.Fatalf("install over colliding tags failed: %+v", e)
	}
	if e, _, stale := fc.lookup(h, &coll[0], gen(2)); e != nil || stale {
		t.Fatalf("evicted colliding key matched a set-mate: %+v stale=%v", e, stale)
	}
	for i := 1; i < flowCacheWays; i++ {
		if _, _, stale := fc.lookup(h, &coll[i], gen(2)); !stale {
			t.Fatalf("colliding key %d lost to a set-mate's install", i)
		}
	}
}

// TestStageRule holds the probe's judgement of an older entry (lookupAt and
// revalidate) to its outcomes, each on a fresh entry whose walk visited
// stage buckets 1 and 2, under hand-logged mods: an entry no mod reached is
// served as it is, with no scan — its snapshot's log is empty, though the
// stamps say 25 mods went to bucket 3 — and keeps its generation; a mod on
// one of its stages that overlaps no packet of its key is scanned past, and
// the entry restamped; an overlapping one stales it; a record of its stages
// beyond the log's reach expires it; a barrier stales it whatever stages it
// names.  An entry whose walk visited more buckets than an entry holds is
// compared with every record.
func TestStageRule(t *testing.T) {
	km := flowKey{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	k := flowKey{0: 7}
	on := func(b uint8, key uint64) modScope {
		return modScope{bucket: b, val: flowKey{0: key}, mask: flowKey{0: ^uint64(0)}}
	}
	run := func(n int, r modScope) []modScope {
		rs := make([]modScope, n)
		for i := range rs {
			rs[i] = r
		}
		return rs
	}
	unlogged := &snapshot{gen: 26, keyMask: km, stamps: stageStamps{at: [stageBuckets]uint64{bucketAll: 26, 3: 26}}}
	for _, tc := range []struct {
		name                string
		stages              stageSet
		mods                []modScope
		sn                  *snapshot // instead of mods
		served, restamped   bool
		revalidated, expire uint64
	}{
		{name: "clean", stages: stageSet{1, 2, 1, 1}, sn: unlogged, served: true, revalidated: 1},
		{name: "touched, no overlap", stages: stageSet{1, 2, 1, 1}, mods: []modScope{on(3, 7), on(1, 8), on(2, 9)},
			served: true, restamped: true, revalidated: 1},
		{name: "overlap", stages: stageSet{1, 2, 1, 1}, mods: []modScope{on(2, 7), on(1, 8)}},
		{name: "beyond reach", stages: stageSet{1, 2, 1, 1}, mods: append([]modScope{on(1, 8)}, run(modLogWindow, on(3, 7))...),
			expire: 1},
		{name: "barrier", stages: stageSet{1, 2, 1, 1}, mods: []modScope{{barrier: true, bucket: 3}}},
		{name: "every stage, no overlap", stages: stageSet{}, mods: []modScope{on(3, 8), on(9, 9)},
			served: true, restamped: true, revalidated: 1},
		{name: "every stage, overlap", stages: stageSet{}, mods: []modScope{on(9, 7), on(3, 8)}},
	} {
		fc := newFlowCache(256, false)
		fc.install(k.hash(), &k, 1, tc.stages, cacheValid, 0, 1, 0, &writeSet{}, nil, 0)
		sn := tc.sn
		if sn == nil {
			sn = &snapshot{gen: 1, keyMask: km}
			for _, r := range tc.mods {
				sn = logged(sn, r)
			}
		}
		e, _, stale := fc.lookup(k.hash(), &k, sn)
		switch {
		case (e != nil) != tc.served || stale == tc.served:
			t.Errorf("%s: served %v, stale %v; want served %v", tc.name, e != nil, stale, tc.served)
		case e != nil && (e.gen == sn.gen) != tc.restamped:
			t.Errorf("%s: entry left at generation %d under %d; want restamped %v", tc.name, e.gen, sn.gen, tc.restamped)
		case fc.revalidatedL != tc.revalidated || fc.expiredL != tc.expire:
			t.Errorf("%s: %d revalidated, %d expired; want %d, %d", tc.name, fc.revalidatedL, fc.expiredL, tc.revalidated, tc.expire)
		}
	}
}

// setMates returns n keys {x, 0, 0, 0, 0}, x counting up from from, whose
// probe hash picks the given set of fc.
func setMates(fc *FlowCache, set uint32, from uint64, n int) []flowKey {
	var ks []flowKey
	for x := from; len(ks) < n; x++ {
		if k := (flowKey{0: x}); k.hash()&fc.mask == set {
			ks = append(ks, k)
		}
	}
	return ks
}

// wayOf returns the way of the set at base that holds a valid entry for k,
// or -1.
func wayOf(fc *FlowCache, base uint32, k *flowKey) int {
	for i := range flowCacheWays {
		if c := &fc.entries[base+uint32(i)]; c.flags&cacheValid != 0 && c.key == *k {
			return i
		}
	}
	return -1
}

// TestFlowCacheClockReplacement holds install's last rule — the clock among
// entries of the current generation (GCLOCK) — on one full set: a way hit
// since the hand last passed survives the install round-robin would have
// given it, a way never hit goes first, a hit counter saturates at refMax,
// and a way hit to saturation and then left idle still goes: no sooner than
// the refMax+1st install (each install's hand passes it at most once while
// its set-mates sit at zero) and within refMax+1 turns of the hand round the
// set.
func TestFlowCacheClockReplacement(t *testing.T) {
	fc := newFlowCache(256, false)
	const gen, base = 1, 0
	sn := &snapshot{gen: gen}
	ks := setMates(fc, base/flowCacheWays, 1, flowCacheWays+1+(refMax+1)*flowCacheWays)
	install := func(k *flowKey) {
		t.Helper()
		fc.install(k.hash(), k, gen, stageSet{}, cacheValid, 0, 1, 0, &writeSet{}, nil, 0)
		checkTags(t, fc)
	}
	hit := func(k *flowKey) {
		t.Helper()
		if e, _, _ := fc.lookup(k.hash(), k, sn); e == nil {
			t.Fatalf("key %#x missed", k[0])
		}
		for i := range fc.entries {
			if r := fc.entries[i].ref; r > refMax {
				t.Fatalf("entry %d: hit counter %d over refMax %d", i, r, refMax)
			}
		}
	}

	// Fill the set in way order.  The hand has not moved, so round-robin's
	// next victim would be way 0.
	for i := range flowCacheWays {
		install(&ks[i])
		if w := wayOf(fc, base, &ks[i]); w != i {
			t.Fatalf("fill %d landed in way %d", i, w)
		}
	}
	hit(&ks[0])
	hit(&ks[1])
	hit(&ks[3])
	install(&ks[flowCacheWays])
	if wayOf(fc, base, &ks[2]) >= 0 || wayOf(fc, base, &ks[flowCacheWays]) != 2 {
		t.Fatal("the never-hit way 2 was not the victim")
	}
	for _, i := range []int{0, 1, 3} {
		if wayOf(fc, base, &ks[i]) != i {
			t.Fatalf("way %d, hit since the hand last passed, was evicted", i)
		}
	}

	// Saturate way 3, then install with no hits at all.
	hot := &ks[3]
	for range 2 * refMax {
		hit(hot)
	}
	if r := fc.entries[base+3].ref; r != refMax {
		t.Fatalf("hit counter after %d hits: %d, want refMax %d", 2*refMax, r, refMax)
	}
	for n, next := 1, flowCacheWays+1; ; n, next = n+1, next+1 {
		install(&ks[next])
		switch gone := wayOf(fc, base, hot) < 0; {
		case gone && n <= refMax:
			t.Fatalf("the saturated way went at install %d, before the hand could pass it refMax+1 times", n)
		case gone:
			return
		case n == (refMax+1)*flowCacheWays:
			t.Fatalf("the idle way outlived %d installs", n)
		}
	}
}

// FuzzFlowCacheOps drives one cache through a byte-coded sequence of installs,
// probes and generation bumps over keys crowded into a few sets — two pairs
// of distinct keys with equal probe hashes among them — and holds it to a
// model after every operation: a hit serves the key's own latest install,
// and only while no mod since has touched the key on a stage its walk
// visited; an entry no mod since its install reached is served at its
// install generation (the clean path rewrites nothing); a key probed right
// after its install, at its generation, hits; no set holds a key twice; tags
// match their keys; hit counters stay within refMax; and an install into a
// set with a free way evicts nothing.  Every key's walk visits two of five
// stage buckets, or, for every fifth key, more than an entry holds.  A mod
// on one stage touches one key there (set-mates and keys elsewhere
// revalidate past it) or every key there, a barrier every key everywhere.
func FuzzFlowCacheOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 1, 2, 2, 1, 3, 0, 2, 1, 4, 0, 2, 1, 0, 9, 0, 10, 0, 11, 0, 12, 2, 9})
	f.Add([]byte{0, 0, 0, 5, 3, 0x10, 2, 0, 2, 5, 4, 0x20, 2, 0, 2, 5, 5, 0, 2, 0, 2, 5})
	rng := rand.New(rand.NewSource(32))
	for _, size := range []int{64, 512} {
		seed := make([]byte, size)
		rng.Read(seed)
		f.Add(seed)
	}
	pool := fuzzCacheKeys(f)
	stagesOf := func(j int) stageSet {
		if j%5 == 4 {
			return stageSet{}
		}
		a := uint8(1 + j%3)
		return stageSet{a, uint8(4 + j%2), a, a}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := newFlowCache(256, false)
		keyMask := flowKey{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		sn := &snapshot{gen: 1, keyMask: keyMask}
		type installed struct {
			out    uint32
			gen    uint64
			stages stageSet
			live   bool // no mod touching the key on its stages since its install
			clean  bool // no mod on its stages since its install
		}
		model := make(map[flowKey]installed)
		probe := func(k *flowKey) *cacheEntry {
			e, idx, _ := fc.lookup(k.hash(), k, sn)
			if e == nil {
				return nil
			}
			if m, ok := model[*k]; e.key != *k || !ok || !m.live || e.out != m.out || idx/flowCacheWays != k.hash()&fc.mask {
				t.Fatalf("probe of key %#x served entry %d (key %#x, out %d), want out %d (live %v)", k[0], idx, e.key[0], e.out, m.out, m.live)
			} else if m.clean && e.gen != m.gen {
				t.Fatalf("probe of key %#x, untouched since generation %d, left it at %d", k[0], m.gen, e.gen)
			}
			return e
		}
		for i, ops := 0, data; len(ops) >= 2; i, ops = i+1, ops[2:] {
			j := int(ops[1]) % len(pool)
			k := &pool[j]
			switch op := ops[0] % 6; op {
			case 0, 1: // install; 1 probes it right after
				h := k.hash()
				base := (h & fc.mask) * flowCacheWays
				var before []flowKey // the set's valid keys, if it has a free way
				for w := range flowCacheWays {
					if c := &fc.entries[base+uint32(w)]; c.flags&cacheValid != 0 {
						before = append(before, c.key)
					}
				}
				if len(before) == flowCacheWays {
					before = nil
				}
				fc.install(h, k, sn.gen, stagesOf(j), cacheValid|cacheHasPort, uint32(i), 1, 0, &writeSet{}, nil, 0)
				model[*k] = installed{uint32(i), sn.gen, stagesOf(j), true, true}
				for _, b := range before {
					if wayOf(fc, base, &b) < 0 {
						t.Fatalf("op %d: install of key %#x into a set with a free way evicted key %#x", i, k[0], b[0])
					}
				}
				if op == 1 && probe(k) == nil {
					t.Fatalf("op %d: key %#x missed right after its install", i, k[0])
				}
			case 2:
				probe(k)
			case 3, 4, 5: // a mod on one stage touching k (3) or every key (4), or a barrier (5)
				b := 1 + ops[1]>>4%5
				r := modScope{bucket: b}
				switch op {
				case 3:
					r.val, r.mask = flowKey{0: k[0]}, flowKey{0: ^uint64(0)}
				case 5:
					r = modScope{barrier: true}
				}
				for key, m := range model {
					if reached := op == 5 || m.stages.has(b); reached {
						m.clean = false
						m.live = m.live && op == 3 && key[0] != k[0]
						model[key] = m
					}
				}
				sn = logged(sn, r)
			}
			checkTags(t, fc)
			for s := uint32(0); s <= fc.mask; s++ {
				base := s * flowCacheWays
				for w := range flowCacheWays {
					c := &fc.entries[base+uint32(w)]
					if c.ref > refMax {
						t.Fatalf("op %d: entry %d hit counter %d over refMax", i, base+uint32(w), c.ref)
					}
					if c.flags&cacheValid != 0 && wayOf(fc, base, &c.key) != w {
						t.Fatalf("op %d: set %d holds key %#x twice", i, s, c.key[0])
					}
				}
			}
		}
	})
}

// logged returns the snapshot after sn once record r is logged, as logMod
// and publish leave it: one generation on, r stamped and appended, the log
// cut to its window.
func logged(sn *snapshot, r modScope) *snapshot {
	next := *sn
	next.gen++
	next.stamps.log(&r, next.gen)
	mods := append(sn.mods[:len(sn.mods):len(sn.mods)], r)
	next.mods = mods[max(0, len(mods)-modLogWindow):]
	return &next
}

// fuzzCacheKeys returns FuzzFlowCacheOps's key pool: two pairs of distinct
// keys with equal probe hashes, found by a birthday search, and six more
// set-mates of each pair — more keys per set than ways, so sets fill and
// evict.
func fuzzCacheKeys(f *testing.F) []flowKey {
	fc := newFlowCache(256, false)
	seen := make(map[uint32]uint64)
	var pool []flowKey
	for x := uint64(1); len(pool) < 4; x++ {
		if x == 1<<22 {
			f.Fatal("no two probe-hash collisions among 4M keys")
		}
		k := flowKey{0: x}
		h := k.hash()
		if y, ok := seen[h]; ok {
			pool = append(pool, flowKey{0: y}, k)
			continue
		}
		seen[h] = x
	}
	for i, k := range []flowKey{pool[0], pool[2]} {
		pool = append(pool, setMates(fc, k.hash()&fc.mask, uint64(i+1)<<40, 6)...)
	}
	return pool
}

// fcWorker registers a worker on a flowcache-enabled compile of the use case.
func fcWorker(t *testing.T, uc *workload.UseCase, entries int) (*Datapath, *Worker) {
	t.Helper()
	opts := DefaultOptions()
	opts.Decompose = decomposes(uc)
	opts.FlowCache = entries
	dp, err := Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := dp.RegisterWorker().(*Worker)
	if !ok {
		t.Fatal("RegisterWorker did not return a *Worker")
	}
	return dp, w
}

func sameVerdict(a, b *openflow.Verdict) bool {
	if a.ToController != b.ToController || a.Dropped != b.Dropped ||
		a.TableMiss != b.TableMiss || a.Modified != b.Modified || a.Tables != b.Tables {
		return false
	}
	if len(a.OutPorts) != len(b.OutPorts) {
		return false
	}
	for i := range a.OutPorts {
		if a.OutPorts[i] != b.OutPorts[i] {
			return false
		}
	}
	return true
}

// TestMeterOffForwardingPlane pins the one rule of the cycle model: it is a
// reading of a metered Process's recording burst, not a forwarding mode.  A
// datapath compiled with both a meter and a verdict cache arms the cache, its
// worker forwards through the burst engine and the cache without charging the
// meter, and the metered Process then charges exactly what a cache-less
// metered twin charges for the same frames.
func TestMeterOffForwardingPlane(t *testing.T) {
	uc := workload.GatewayUseCase(workload.GatewayConfig{CEs: 4, UsersPerCE: 8, Prefixes: 500, Seed: 3})
	const n = 4096
	compile := func(flowCache int) (*Datapath, *cpumodel.Meter) {
		opts := DefaultOptions()
		opts.FlowCache = flowCache
		opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
		dp, err := Compile(uc.Pipeline.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return dp, opts.Meter
	}
	dp, meter := compile(2 * n)
	twin, twinMeter := compile(0)
	if _, why := dp.FlowCacheKey(); !dp.FlowCacheEnabled() {
		t.Fatalf("a metered gateway does not arm its cache: %s", why)
	}

	// The gateway rewrites headers in place, so every pass gets its own copy.
	tr := uc.Trace(n)
	packets := func() []pkt.Packet {
		ps := make([]pkt.Packet, n)
		for i := range ps {
			data, in := tr.Frame(i)
			ps[i] = pkt.Packet{Data: pkt.Clone(data), InPort: in}
		}
		return ps
	}

	w := dp.RegisterWorker().(*Worker)
	defer dp.UnregisterWorker(w)
	for pass := 0; pass < 2; pass++ {
		packets := packets()
		ps := make([]*pkt.Packet, n)
		for i := range ps {
			ps[i] = &packets[i]
		}
		w.Enter()
		w.ProcessBurst(ps, make([]openflow.Verdict, n))
		w.Exit()
	}
	if st := dp.FlowCacheStats(); st.Hits == 0 {
		t.Fatalf("the second pass hit nothing: %+v", st)
	}
	if got := meter.Packets(); got != 0 {
		t.Fatalf("the worker's bursts charged the meter for %d packets", got)
	}

	a, b := packets(), packets()
	var va, vb openflow.Verdict
	for i := range a {
		dp.ProcessUnlocked(&a[i], &va)
		twin.ProcessUnlocked(&b[i], &vb)
		if !sameVerdict(&va, &vb) || a[i].Headers != b[i].Headers {
			t.Fatalf("frame %d: %s, headers %+v; the cache-less twin %s, headers %+v", i, &va, a[i].Headers, &vb, b[i].Headers)
		}
	}
	if meter.Packets() != n || meter.TotalCycles() != twinMeter.TotalCycles() || meter.LLCMissesPerPacket() != twinMeter.LLCMissesPerPacket() {
		t.Fatalf("the walk behind a cache charged %s, the cache-less twin %s", meter, twinMeter)
	}
}

// bundledUseCases are the six bundled workloads at test scale.
func bundledUseCases() []*workload.UseCase {
	return []*workload.UseCase{
		workload.L2UseCase(64, 4),
		workload.L3UseCase(400, 8, 7),
		workload.LoadBalancerUseCase(50),
		workload.GatewayUseCase(workload.GatewayConfig{CEs: 3, UsersPerCE: 5, Prefixes: 300, Seed: 5}),
		workload.L2PortSecurityUseCase(64, 4),
		workload.L3ACLRouterUseCase(150, 200, 8, 7),
	}
}

// decomposes reports whether a test compiles the use case with
// Options.Decompose: only the decomposed ACL fixture needs it.
func decomposes(uc *workload.UseCase) bool { return uc.Name == "acl" }

// decomposedACL is the decomposition fixture: a 20-rule synthetic ACL that
// Options.Decompose splits into 38 stages, some of them linked lists, with a
// trace of TCP and UDP flows towards the ACL's servers and ports, some from
// the sources its rules name.
func decomposedACL() *workload.UseCase {
	return &workload.UseCase{
		Name:     "acl",
		Pipeline: workload.ACLPipeline(workload.GenerateACLs(20, 11)),
		Trace: func(n int) *pktgen.Trace {
			rng := rand.New(rand.NewSource(int64(n)))
			flows := make([]pktgen.Flow, n)
			for i := range flows {
				flows[i] = pktgen.Flow{
					InPort:  uint32(1 + rng.Intn(2)),
					SrcIP:   pkt.IPv4FromOctets(203, 0, 113, byte(rng.Intn(6))),
					DstIP:   pkt.IPv4FromOctets(192, 0, 2, byte(9+rng.Intn(7))),
					Proto:   []uint8{pkt.IPProtoTCP, pkt.IPProtoUDP}[rng.Intn(2)],
					SrcPort: uint16(1024 + rng.Intn(1000)),
					DstPort: []uint16{22, 25, 53, 80, 443, 445, 3389, 8080}[rng.Intn(8)],
				}
			}
			return pktgen.NewTrace(flows, int64(n))
		},
	}
}

// TestFlowCacheDifferential replays every bundled workload and the
// decomposed ACL three times through a flowcache-enabled worker — where the
// pipeline arms the cache the later passes are served almost entirely from
// it, where it does not (the one-stage L2, L3 and load-balancer pipelines)
// they must not touch it — and requires
// bit-identical verdicts, rewritten headers and metadata against a cache-free
// datapath over the same frames.
func TestFlowCacheDifferential(t *testing.T) { flowCacheDifferential(t, 4096, true) }

// TestFlowCacheThrashDifferential is the same replay through the smallest
// cache there is (64 sets x 4 ways for 200 flows), so that set conflicts keep
// evicting and reinstalling entries on every pass, not just the cold one.
func TestFlowCacheThrashDifferential(t *testing.T) { flowCacheDifferential(t, 64, false) }

func flowCacheDifferential(t *testing.T, entries int, resident bool) {
	const nFlows = 200
	for _, uc := range append(bundledUseCases(), decomposedACL()) {
		t.Run(uc.Name, func(t *testing.T) {
			dp, w := fcWorker(t, uc, entries)
			defer dp.UnregisterWorker(w)
			armed := dp.FlowCacheEnabled()
			if oneStage := uc.Name == "l2" || uc.Name == "l3" || uc.Name == "loadbalancer"; armed == oneStage {
				t.Fatalf("%s pipeline: cache armed = %v", uc.Name, armed)
			}
			if uc.Name == "acl" && dp.DecomposedTables() == 0 {
				t.Fatal("the ACL did not decompose")
			}

			plainOpts := DefaultOptions()
			plainOpts.Decompose = decomposes(uc)
			plain, err := Compile(uc.Pipeline.Clone(), plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			pw := plain.RegisterWorker()
			defer plain.UnregisterWorker(pw)

			trace := uc.Trace(nFlows)
			frames := make([][]byte, nFlows)
			inPorts := make([]uint32, nFlows)
			for i := range frames {
				var p pkt.Packet
				trace.Next(&p)
				frames[i], inPorts[i] = p.Data, p.InPort
			}

			const burst = 32
			packets := make([]pkt.Packet, burst)
			ps := make([]*pkt.Packet, burst)
			for i := range packets {
				ps[i] = &packets[i]
			}
			vs := make([]openflow.Verdict, burst)
			refPackets := make([]pkt.Packet, burst)
			refPs := make([]*pkt.Packet, burst)
			for i := range refPackets {
				refPs[i] = &refPackets[i]
			}
			refVs := make([]openflow.Verdict, burst)

			for pass := 0; pass < 3; pass++ {
				for base := 0; base < nFlows; base += burst {
					g := burst
					if nFlows-base < g {
						g = nFlows - base
					}
					for j := 0; j < g; j++ {
						packets[j] = pkt.Packet{Data: frames[base+j], InPort: inPorts[base+j]}
						refPackets[j] = pkt.Packet{Data: frames[base+j], InPort: inPorts[base+j]}
					}
					w.Enter()
					w.ProcessBurst(ps[:g], vs[:g])
					w.Exit()
					pw.Enter()
					pw.ProcessBurst(refPs[:g], refVs[:g])
					pw.Exit()
					for j := 0; j < g; j++ {
						if !sameVerdict(&vs[j], &refVs[j]) {
							t.Fatalf("pass %d frame %d: cached verdict %s != plain %s",
								pass, base+j, vs[j].String(), refVs[j].String())
						}
						if packets[j].Headers != refPackets[j].Headers {
							t.Fatalf("pass %d frame %d: cached headers %+v != plain %+v",
								pass, base+j, packets[j].Headers, refPackets[j].Headers)
						}
						if packets[j].Metadata != refPackets[j].Metadata {
							t.Fatalf("pass %d frame %d: cached metadata %#x != plain %#x",
								pass, base+j, packets[j].Metadata, refPackets[j].Metadata)
						}
					}
				}
			}

			st := dp.FlowCacheStats()
			if !armed {
				if st.Hits+st.Misses != 0 || st.Capacity != 0 || w.cache != nil {
					t.Fatalf("unarmed pipeline probed or allocated a cache: %+v", st)
				}
				return
			}
			// The flow set is cache-resident: once the first pass has
			// installed it, the later passes hit almost always.
			if resident && st.Hits*100 < 99*2*nFlows {
				t.Fatalf("second and third passes hit only %d times in %d packets", st.Hits, 2*nFlows)
			}
			if st.Hits+st.Misses != uint64(3*nFlows) {
				t.Fatalf("fold exactness violated: hits %d + misses %d != %d processed",
					st.Hits, st.Misses, 3*nFlows)
			}
		})
	}
}

// twoStage returns a pipeline whose table 0 sends port-1 traffic on to table
// 1: deep enough to arm the cache, with table 1 left to the caller.
func twoStage(numPorts int) (*openflow.Pipeline, *openflow.FlowTable) {
	pl := openflow.NewPipeline(numPorts)
	pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldInPort, 1), openflow.Goto(1))
	return pl, pl.AddTable(1)
}

// TestFlowCacheGating asserts the cache never engages where it could lie, and
// does where it cannot: pipelines matching fields outside the flow key are
// not armed (ones that only set such fields are), multicast verdicts are not
// memoized, and packets entering with metadata bypass it.  (Per-entry counters do not gate the cache: entries memoize the
// matched entries' counter pointers and hits keep the statistics exact —
// TestFlowCacheCountersExact.  Pipelines one probe deep are not armed either —
// TestCacheArming.)
func TestFlowCacheGating(t *testing.T) {
	compile := func(t *testing.T, pl *openflow.Pipeline) *Datapath {
		t.Helper()
		opts := DefaultOptions()
		opts.FlowCache = 1024
		dp, err := Compile(pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}
	t.Run("uncovered-field", func(t *testing.T) {
		pl, t1 := twoStage(2)
		t1.AddFlow(10, openflow.NewMatch().Set(openflow.FieldTCPFlags, 0x10), openflow.Apply(openflow.Output(2)))
		t1.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
		dp := compile(t, pl)
		if _, why := dp.FlowCacheKey(); dp.FlowCacheEnabled() || !strings.Contains(why, "tcp_flags") {
			t.Fatalf("pipeline matching tcp_flags must not arm the cache (and say why): %q", why)
		}
		w := dp.RegisterWorker().(*Worker)
		defer dp.UnregisterWorker(w)
		b := pkt.NewBuilder(128)
		frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 1, Dst: 2}, pkt.L4Opts{Src: 1, Dst: 2}))
		p := pkt.Packet{Data: frame, InPort: 1}
		ps := []*pkt.Packet{&p}
		vs := make([]openflow.Verdict, 1)
		for i := 0; i < 3; i++ {
			p = pkt.Packet{Data: frame, InPort: 1}
			w.Enter()
			w.ProcessBurst(ps, vs)
			w.Exit()
		}
		if st := dp.FlowCacheStats(); st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("unarmed pipeline still counted cache traffic: %+v", st)
		}
	})

	t.Run("uncovered-field-added-later", func(t *testing.T) {
		// An armed pipeline is disarmed the moment a flow-mod installs a
		// match on an uncovered field.
		pl, t1 := twoStage(2)
		t1.AddFlow(10, openflow.NewMatch().Set(openflow.FieldIPDst, 9), openflow.Apply(openflow.Output(2)))
		t1.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
		dp := compile(t, pl)
		if !dp.FlowCacheEnabled() {
			t.Fatal("two-stage exact-IP pipeline should arm the cache")
		}
		flushes := dp.FlowCacheStats().Flushes
		if err := dp.AddFlow(1, openflow.NewEntry(20, openflow.NewMatch().Set(openflow.FieldIPDSCP, 46), openflow.Apply(openflow.Output(2)))); err != nil {
			t.Fatal(err)
		}
		if dp.FlowCacheEnabled() || dp.FlowCacheStats().Flushes != flushes+1 {
			t.Fatal("a match on dscp must disarm the cache behind a barrier")
		}
	})

	t.Run("uncovered-field-set", func(t *testing.T) {
		// A field the pipeline only sets needs no key bits: an entry replays
		// the write itself, so the frame that already carries the value
		// installs an entry that serves the others theirs.
		pl, t1 := twoStage(2)
		t1.AddFlow(10, openflow.NewMatch().Set(openflow.FieldIPDst, 9), openflow.Apply(
			openflow.SetField(openflow.FieldIPDSCP, 46), openflow.SetField(openflow.FieldVLANPCP, 5), openflow.Output(2)))
		r := newKeyRig(t, pl)
		b := pkt.NewBuilder(128)
		for _, h := range []struct{ dscp, pcp uint8 }{{46, 5}, {0, 0}, {10, 3}, {46, 5}} {
			frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{VLAN: 7, PCP: h.pcp}, pkt.IPv4Opts{Src: 1, Dst: 9, DSCP: h.dscp}, pkt.L4Opts{Src: 1, Dst: 2}))
			r.send(fmt.Sprintf("dscp %d pcp %d", h.dscp, h.pcp), frame, 1)
		}
		if st := r.dp.FlowCacheStats(); st.Installs != 1 || st.Hits != 3 {
			t.Fatalf("want one entry serving the three frames after the first: %+v", st)
		}
	})

	t.Run("armed-later", func(t *testing.T) {
		// A one-stage pipeline's workers carry no cache until a flow-mod
		// arms it; from then on a new worker gets its cache at registration
		// and a standing one in its next Enter, ahead of the epoch bracket.
		pl := openflow.NewPipeline(2)
		pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldIPDst, 9), openflow.Apply(openflow.Output(2)))
		dp := compile(t, pl)
		w := dp.RegisterWorker().(*Worker)
		defer dp.UnregisterWorker(w)
		p := tcpPacket(t, 1, 7, 9, 1234, 80)
		burst := func(w *Worker) {
			w.ProcessBurst([]*pkt.Packet{p}, make([]openflow.Verdict, 1))
			w.Exit()
		}
		w.Enter()
		burst(w)
		if dp.FlowCacheEnabled() || w.cache != nil || dp.FlowCacheStats().Capacity != 0 {
			t.Fatal("one-stage pipeline armed or allocated a cache")
		}
		if err := dp.AddFlow(0, openflow.NewEntry(20, openflow.NewMatch().Set(openflow.FieldIPDst, 8), openflow.Goto(1))); err != nil {
			t.Fatal(err)
		}
		w2 := dp.RegisterWorker().(*Worker)
		defer dp.UnregisterWorker(w2)
		if !dp.FlowCacheEnabled() || w2.cache == nil {
			t.Fatal("a worker registered on an armed pipeline gets its cache at registration")
		}
		if w.Enter(); w.cache == nil {
			t.Fatal("a standing worker gets its cache in the first Enter after arming")
		}
		burst(w)
		if st := dp.FlowCacheStats(); st.Misses != 1 || st.Capacity != uint64(w.cache.Len()+w2.cache.Len()) {
			t.Fatalf("armed-later stats: %+v", st)
		}
	})

	t.Run("multicast-not-installed", func(t *testing.T) {
		// The port-security bridge's flood catch-all replicates to 3 ports:
		// such verdicts must take the full walk every time.
		uc := workload.L2PortSecurityUseCase(4, 4)
		dp, w := fcWorker(t, uc, 1024)
		defer dp.UnregisterWorker(w)
		var known pkt.Packet
		uc.Trace(1).Next(&known)
		pkt.ParseL2(&known)
		b := pkt.NewBuilder(128)
		frame := pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{
			Dst: pkt.MACFromUint64(0xdeadbeef), Src: known.Headers.EthSrc, EtherType: 0x0800}, nil))
		p := pkt.Packet{Data: frame, InPort: known.InPort}
		ps := []*pkt.Packet{&p}
		vs := make([]openflow.Verdict, 1)
		for i := 0; i < 4; i++ {
			p = pkt.Packet{Data: frame, InPort: known.InPort}
			w.Enter()
			w.ProcessBurst(ps, vs)
			w.Exit()
			if len(vs[0].OutPorts) != 3 {
				t.Fatalf("flood verdict lost ports: %v", vs[0].String())
			}
		}
		if st := dp.FlowCacheStats(); st.Hits != 0 || st.Misses != 4 {
			t.Fatalf("multicast verdict was memoized: %+v", st)
		}
	})

	t.Run("nonzero-metadata-bypasses", func(t *testing.T) {
		// One flow, memoized and hit with metadata zero; the same frames
		// entering with metadata set share its masked key and must neither
		// be served from the entry nor replace it.
		uc := workload.L3ACLRouterUseCase(50, 100, 4, 1)
		dp, w := fcWorker(t, uc, 1024)
		defer dp.UnregisterWorker(w)
		frame, inPort := uc.Trace(4).Frame(0)
		shoot := func(meta uint64) {
			p := pkt.Packet{Data: frame, InPort: inPort, Metadata: meta}
			w.Enter()
			w.ProcessBurst([]*pkt.Packet{&p}, make([]openflow.Verdict, 1))
			w.Exit()
		}
		for _, meta := range []uint64{0, 0, 7, 7, 0} {
			shoot(meta)
		}
		if st := dp.FlowCacheStats(); st.Hits != 2 || st.Misses != 3 || st.Installs != 1 {
			t.Fatalf("want 2 hits (metadata 0), 3 misses (cold + 2 with metadata) and 1 install: %+v", st)
		}
	})
}

// TestTTLFloorMemoized: a walk whose dec_ttls take a frame's TTL to zero is
// memoized like any other, since the entry holds the decrements the walk ran
// rather than the difference they made, and frames with TTL to spare served
// from it lose exactly as many.
func TestTTLFloorMemoized(t *testing.T) {
	pl := openflow.NewPipeline(2)
	pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldInPort, 1), openflow.ApplyThenGoto(1, openflow.DecTTL()))
	pl.AddTable(1).AddFlow(10, openflow.NewMatch().Set(openflow.FieldIPDst, 9), openflow.Apply(openflow.DecTTL(), openflow.Output(2)))
	r := newKeyRig(t, pl)
	b := pkt.NewBuilder(128)
	send := func(ttl uint8) {
		t.Helper()
		r.send(fmt.Sprintf("ttl %d", ttl), pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 1, Dst: 9, TTL: ttl}, pkt.L4Opts{Src: 1, Dst: 2})), 1)
	}
	send(1)
	send(1)
	if st := r.dp.FlowCacheStats(); st.Installs != 1 || st.Hits != 1 {
		t.Fatalf("a walk that floors the TTL must be memoized: %+v", st)
	}
	send(64)
	send(2)
	if st := r.dp.FlowCacheStats(); st.Installs != 1 || st.Hits != 3 {
		t.Fatalf("frames with TTL to spare must share the entry: %+v", st)
	}
}

// TestWriteSetMatchesApplyActions holds the write-set to the interpreter's
// action semantics.  For every ordered pair, and a sample of triples, of
// header actions — a set-field of two values on every field (metadata, PCP,
// DSCP and the three L4 aliases among them; the fields ApplyActions ignores
// too), push_vlan of two tags, pop_vlan, dec_ttl and a drop midway —
// replaying addList's fold of the list must leave a parsed frame, tagged or
// not and at TTL 0, 1 or 64, with the headers and metadata
// openflow.ApplyActions leaves, starting from metadata zero.
func TestWriteSetMatchesApplyActions(t *testing.T) {
	var actions openflow.ActionList
	for f := openflow.Field(0); f < openflow.NumFields; f++ {
		actions = append(actions, openflow.SetField(f, 0x5a5a5a5a5a5a5a5a), openflow.SetField(f, 0x0123456789abcdef))
	}
	actions = append(actions, openflow.PushVLAN(100), openflow.PushVLAN(200), openflow.PopVLAN(), openflow.DecTTL(), openflow.Drop())
	var frames []pkt.Packet
	for _, tagged := range []bool{false, true} {
		for _, ttl := range []uint8{0, 1, 64} {
			h := pkt.Headers{Proto: pkt.ProtoEthernet | pkt.ProtoIPv4 | pkt.ProtoTCP, Parsed: pkt.LayerL4,
				EthDst: pkt.MACFromUint64(0x020000000001), EthSrc: pkt.MACFromUint64(0x020000000002), EthType: 0x0800,
				IPSrc: 0x0a000001, IPDst: 0x0a000002, IPProto: 6, IPDSCP: 12, IPTTL: ttl, L4Src: 1234, L4Dst: 80}
			if tagged {
				h.Proto |= pkt.ProtoVLAN
				h.VLANID, h.VLANPCP = 300, 3
			}
			frames = append(frames, pkt.Packet{InPort: 1, Headers: h})
		}
	}
	check := func(list openflow.ActionList) {
		t.Helper()
		var w writeSet
		w.addList(list)
		for _, frame := range frames {
			want, got := frame, frame
			var v openflow.Verdict
			openflow.ApplyActions(list, &want, &v, 4)
			applyWrites(&got, w.fields, w.ttlDec, &w.patch)
			if got.Headers != want.Headers || got.Metadata != want.Metadata {
				t.Fatalf("%v on %+v: replay left %+v metadata %#x, ApplyActions %+v %#x",
					list, frame.Headers, got.Headers, got.Metadata, want.Headers, want.Metadata)
			}
		}
	}
	for _, a := range actions {
		for _, b := range actions {
			check(openflow.ActionList{a, b})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		check(openflow.ActionList{actions[rng.Intn(len(actions))], actions[rng.Intn(len(actions))], actions[rng.Intn(len(actions))]})
	}
}

// TestFlowCacheStaleGeneration is the invalidation acceptance test: once a
// flow-mod has returned (its epoch synchronize done), no later burst may be
// served a verdict memoized under the pre-update tables — the entry's retired
// generation makes it a miss, and the fresh walk sees the new tables.
func TestFlowCacheStaleGeneration(t *testing.T) {
	pl, t1 := twoStage(4)
	for i := 0; i < 32; i++ {
		t1.AddFlow(10, openflow.NewMatch().Set(openflow.FieldIPDst, uint64(0x0a000000+i)),
			openflow.Apply(openflow.Output(2)))
	}
	t1.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	opts := DefaultOptions()
	opts.FlowCache = 1024
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := dp.RegisterWorker().(*Worker)
	defer dp.UnregisterWorker(w)

	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
		pkt.IPv4Opts{Src: 1, Dst: pkt.IPv4(0x0a000005)}, pkt.L4Opts{Src: 1000, Dst: 80}))
	shoot := func() *openflow.Verdict {
		p := pkt.Packet{Data: frame, InPort: 1}
		ps := []*pkt.Packet{&p}
		vs := make([]openflow.Verdict, 1)
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
		return &vs[0]
	}

	if v := shoot(); len(v.OutPorts) != 1 || v.OutPorts[0] != 2 {
		t.Fatalf("install pass: %s", v.String())
	}
	if v := shoot(); len(v.OutPorts) != 1 || v.OutPorts[0] != 2 {
		t.Fatalf("hit pass: %s", v.String())
	}
	if st := dp.FlowCacheStats(); st.Hits != 1 {
		t.Fatalf("expected exactly one hit before the update, got %+v", st)
	}

	// Replace the entry's action (same match+priority replaces): the very
	// next burst must observe port 3, not the memoized port 2.
	if err := dp.AddFlow(1, openflow.NewEntry(10,
		openflow.NewMatch().Set(openflow.FieldIPDst, uint64(0x0a000005)),
		openflow.Apply(openflow.Output(3)))); err != nil {
		t.Fatal(err)
	}
	if v := shoot(); len(v.OutPorts) != 1 || v.OutPorts[0] != 3 {
		t.Fatalf("post-replace burst served a retired verdict: %s", v.String())
	}
	if v := shoot(); len(v.OutPorts) != 1 || v.OutPorts[0] != 3 {
		t.Fatalf("post-replace hit pass: %s", v.String())
	}

	// Delete the entry: the catch-all drop must take over immediately, and
	// at least one probe must have seen (and refused) a stale entry along
	// the way.
	if _, err := dp.DeleteFlow(1,
		openflow.NewMatch().Set(openflow.FieldIPDst, uint64(0x0a000005)), 10); err != nil {
		t.Fatal(err)
	}
	if v := shoot(); !v.Dropped || len(v.OutPorts) != 0 {
		t.Fatalf("post-delete burst served a retired verdict: %s", v.String())
	}
	if st := dp.FlowCacheStats(); st.Stale == 0 {
		t.Fatalf("updates produced no stale sightings: %+v", st)
	}
	if st := dp.FlowCacheStats(); st.Hits+st.Misses != 5 {
		t.Fatalf("fold exactness violated across updates: %+v (5 packets)", st)
	}
}

// TestFlowCacheAcrossInstallPipeline: a full pipeline replacement retires
// every memoized verdict too.
func TestFlowCacheAcrossInstallPipeline(t *testing.T) {
	uc := workload.L3ACLRouterUseCase(50, 100, 4, 1)
	dp, w := fcWorker(t, uc, 2048)
	defer dp.UnregisterWorker(w)
	trace := uc.Trace(8)
	packets := make([]pkt.Packet, 8)
	ps := make([]*pkt.Packet, 8)
	vs := make([]openflow.Verdict, 8)
	run := func() {
		trace.Reset()
		for i := range packets {
			trace.Next(&packets[i])
			ps[i] = &packets[i]
		}
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
	}
	run()
	run()
	if st := dp.FlowCacheStats(); st.Hits == 0 {
		t.Fatal("no hits before the reinstall")
	}
	// Install a drop-everything pipeline; every cached forward verdict is
	// now wrong and must not be served.
	pl := openflow.NewPipeline(4)
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	if err := dp.InstallPipeline(pl); err != nil {
		t.Fatal(err)
	}
	run()
	for i := range vs {
		if !vs[i].Dropped || len(vs[i].OutPorts) != 0 {
			t.Fatalf("packet %d forwarded on a verdict retired by InstallPipeline: %s", i, vs[i].String())
		}
	}
}

// TestFlowCacheEvictionChurn drives far more flows than the cache holds and
// checks correctness is preserved under constant eviction (and that the
// counters still account for every packet), under a Zipf schedule, which
// keeps a popular head hot in the tiny cache while the tail churns through
// evictions, and round-robin, where every flow is evicted before it recurs:
// the skewed schedule must hit more often.
func TestFlowCacheEvictionChurn(t *testing.T) {
	zipf := flowCacheEvictionChurn(t, true)
	if zipf.Hits == 0 || zipf.Misses == 0 {
		t.Fatalf("Zipf churn run should mix hits and misses: %+v", zipf)
	}
	if uniform := flowCacheEvictionChurn(t, false); zipf.Hits <= uniform.Hits {
		t.Fatalf("Zipf schedule hit %d times, round-robin %d, on a cache smaller than the flow set", zipf.Hits, uniform.Hits)
	}
}

func flowCacheEvictionChurn(t *testing.T, zipf bool) FlowCacheStats {
	uc := workload.L3ACLRouterUseCase(5000, 200, 4, 3)
	dp, w := fcWorker(t, uc, 256) // deliberately tiny: 64 sets x 4 ways
	defer dp.UnregisterWorker(w)
	plain, err := Compile(uc.Pipeline.Clone(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pw := plain.RegisterWorker()
	defer plain.UnregisterWorker(pw)
	// The schedule is identical on both traces.
	trace := uc.Trace(5000)
	ref := uc.Trace(5000)
	if zipf {
		if err := trace.UseZipf(1.2, 42); err != nil {
			t.Fatal(err)
		}
		if err := ref.UseZipf(1.2, 42); err != nil {
			t.Fatal(err)
		}
	}
	const burst = 32
	packets := make([]pkt.Packet, burst)
	ps := make([]*pkt.Packet, burst)
	refPackets := make([]pkt.Packet, burst)
	refPs := make([]*pkt.Packet, burst)
	for i := range packets {
		ps[i] = &packets[i]
		refPs[i] = &refPackets[i]
	}
	vs := make([]openflow.Verdict, burst)
	refVs := make([]openflow.Verdict, burst)
	total := 0
	for round := 0; round < 400; round++ {
		for j := 0; j < burst; j++ {
			trace.Next(ps[j])
			ref.Next(refPs[j])
		}
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
		pw.Enter()
		pw.ProcessBurst(refPs, refVs)
		pw.Exit()
		total += burst
		for j := 0; j < burst; j++ {
			if !sameVerdict(&vs[j], &refVs[j]) {
				t.Fatalf("round %d slot %d: %s != %s", round, j, vs[j].String(), refVs[j].String())
			}
		}
	}
	checkTags(t, w.cache)
	st := dp.FlowCacheStats()
	if st.Hits+st.Misses != uint64(total) {
		t.Fatalf("fold exactness under churn: %+v != %d packets", st, total)
	}
	return st
}

// TestFlowCacheKeepsHotFlows pins the replacement policy's hit ratio in the
// shape of the benchmark's gateway_zipf_cached: the access gateway, Zipf(1.1)
// popularity over 4,096 flows into a 2,048-entry cache.  Half the flows fit,
// carrying about 95% of the traffic; first-in-first-out replacement among a
// full set's entries reads 0.893 here, what an ideal cache of half the size
// would reach, and the clock must keep the head resident.  The counts are
// deterministic (one worker, a seeded schedule), so the floor cannot flake.
func TestFlowCacheKeepsHotFlows(t *testing.T) {
	uc := workload.GatewayUseCase(workload.DefaultGatewayConfig())
	dp, w := fcWorker(t, uc, 2048)
	defer dp.UnregisterWorker(w)
	if _, why := dp.FlowCacheKey(); !dp.FlowCacheEnabled() {
		t.Fatalf("the gateway does not arm its cache: %s", why)
	}
	const flows, burst, warmup, window = 4096, 32, 20_000, 1 << 18
	trace := uc.Trace(flows)
	if err := trace.UseZipf(1.1, 42); err != nil {
		t.Fatal(err)
	}
	packets := make([]pkt.Packet, burst)
	ps := make([]*pkt.Packet, burst)
	for i := range packets {
		ps[i] = &packets[i]
	}
	vs := make([]openflow.Verdict, burst)
	run := func(n int) {
		for i := 0; i < n; i += burst {
			for _, p := range ps {
				trace.Next(p)
			}
			w.Enter()
			w.ProcessBurst(ps, vs)
			w.Exit()
		}
	}
	run(warmup)
	before := dp.FlowCacheStats()
	run(window)
	after := dp.FlowCacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	ratio := float64(hits) / float64(hits+misses)
	t.Logf("hit ratio %.4f (%d hits, %d misses)", ratio, hits, misses)
	if ratio < 0.915 {
		t.Fatalf("hit ratio %.4f over %d packets, want >= 0.915", ratio, hits+misses)
	}
}

// TestFlowCacheStatsCheckInvariants exercises the canonical cache identities
// over synthetic folds: consistent counters pass, every single-counter
// perturbation is caught, and the fold identity is waived only where it
// cannot hold (no probes, contained panics).
func TestFlowCacheStatsCheckInvariants(t *testing.T) {
	good := FlowCacheStats{Hits: 700, Misses: 300, Stale: 10, Revalidated: 5, Expired: 2}
	if err := good.CheckInvariants(1000, 0); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	for name, mutate := range map[string]func(*FlowCacheStats){
		"fold":             func(st *FlowCacheStats) { st.Misses-- },
		"stale>misses":     func(st *FlowCacheStats) { st.Stale = st.Misses + 1 },
		"expired>stale":    func(st *FlowCacheStats) { st.Expired = st.Stale + 1 },
		"revalidated>hits": func(st *FlowCacheStats) { st.Revalidated = st.Hits + 1 },
	} {
		st := good
		mutate(&st)
		if err := st.CheckInvariants(1000, 0); err == nil {
			t.Fatalf("%s: inconsistent stats accepted: %+v", name, st)
		}
	}
	// An unprobed cache has nothing to account for.
	if err := (FlowCacheStats{}).CheckInvariants(10, 0); err != nil {
		t.Fatalf("quiet stats rejected: %v", err)
	}
	// Contained panics abandon bursts between probe and tally: the fold
	// identity is waived, the subset relations still checked.
	if err := good.CheckInvariants(1032, 1); err != nil {
		t.Fatalf("panic-containing stats rejected: %v", err)
	}
	bad := good
	bad.Stale = bad.Misses + 1
	if err := bad.CheckInvariants(1032, 1); err == nil {
		t.Fatal("subset relation waived by a panic")
	}
}

func ExampleFlowCacheStats() {
	uc := workload.L3UseCase(100, 4, 1)
	opts := DefaultOptions()
	opts.FlowCache = 1024
	dp, _ := Compile(uc.Pipeline, opts)
	fmt.Println(dp.FlowCacheStats().Hits)
	// Output: 0
}

// TestFlowCacheCountersExact asserts that per-flow counters stay exact when
// the verdict cache is serving hits on a counters-enabled datapath: cache
// entries memoize the matched entries' Counters pointers and every hit
// credits exactly the entries the original walk matched, so after the worker
// quiesces the table totals equal the packets processed — with most of the
// traffic never having taken the template walk.  The second run's cache is a
// quarter of its flow set, so entries (and their pointer lists) are evicted
// and reinstalled throughout.
func TestFlowCacheCountersExact(t *testing.T) {
	for _, c := range []struct {
		name                    string
		nFlows, entries, passes int
	}{{"microflow", 256, 1024, 4}, {"microflow+evictions", 1024, 256, 3}} {
		t.Run(c.name, func(t *testing.T) {
			uc := workload.L3ACLRouterUseCase(c.nFlows, 200, 4, 1)
			opts := DefaultOptions()
			opts.UpdateCounters = true
			opts.FlowCache = c.entries
			dp, err := Compile(uc.Pipeline, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !dp.FlowCacheEnabled() {
				t.Fatal("counters-enabled pipeline must still arm the cache")
			}
			w := dp.RegisterWorker().(*Worker)
			defer dp.UnregisterWorker(w)

			trace := uc.Trace(c.nFlows)
			packets := make([]pkt.Packet, MaxBurst)
			ps := make([]*pkt.Packet, MaxBurst)
			vs := make([]openflow.Verdict, MaxBurst)
			total, totalBytes, tables := 0, 0, 0
			for pass := 0; pass < c.passes; pass++ {
				trace.Reset()
				for done := 0; done < c.nFlows; {
					n := 0
					for ; n < MaxBurst && done < c.nFlows; n, done = n+1, done+1 {
						ps[n] = &packets[n]
						trace.Next(ps[n])
						totalBytes += len(ps[n].Data)
					}
					w.Enter()
					w.ProcessBurst(ps[:n], vs[:n])
					w.Exit()
					total += n
					for i := range vs[:n] {
						tables += vs[i].Tables
					}
				}
			}
			// An empty Enter/Exit bracket is the worker's quiescent point:
			// it folds any held counter deltas (flowctr.go).
			w.Enter()
			w.Exit()

			st := dp.FlowCacheStats()
			if st.Hits == 0 || (c.nFlows > c.entries && st.Victims == 0) {
				t.Fatalf("want cache hits, and evictions where the flows outnumber the entries: %+v", st)
			}
			if st.Hits+st.Misses != uint64(total) {
				t.Fatalf("fold exactness violated: hits %d + misses %d != %d processed", st.Hits, st.Misses, total)
			}
			// Every packet is admitted and routed: one entry credited per
			// table visited, two per packet.
			var gotPkts, gotBytes uint64
			for _, s := range dp.FlowSamples(nil) {
				gotPkts += s.Packets
				gotBytes += s.Bytes
			}
			if tables != 2*total || gotPkts != uint64(tables) || gotBytes != 2*uint64(totalBytes) {
				t.Fatalf("counters diverged under cache hits: tables credit %d pkts / %d bytes, %d packets / %d bytes visited %d tables (hits %d)",
					gotPkts, gotBytes, total, totalBytes, tables, st.Hits)
			}
		})
	}
}

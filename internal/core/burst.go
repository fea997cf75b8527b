package core

import (
	"unsafe"

	"eswitch/internal/exacthash"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// MaxBurst is the largest number of packets one burst wave handles at a time
// (comfortably above DPDK's customary 32-packet bursts); ProcessBurst splits
// longer slices into MaxBurst-sized chunks.
const MaxBurst = 64

// burstScratch is the reusable working state of one in-flight burst.  It is
// sized for MaxBurst packets, owned by one Worker and fully reused across
// bursts — that and the action-set slices retaining their capacity is what
// makes the steady-state burst path allocation-free.
type burstScratch struct {
	// Engine state, indexed by burst slot: the trampoline the packet waits
	// at and the accumulated OpenFlow action set.
	tramp [MaxBurst]*trampoline
	sets  [MaxBurst]openflow.ActionList
	// set0 is level 0's action-set backing array, reused across bursts so a
	// table-0 write-actions entry does not allocate one per burst.
	set0 openflow.ActionList
	// frontA and frontB are the ping-pong BFS frontiers: the live slots at
	// the current pipeline depth and at the next one.
	frontA [MaxBurst]int32
	frontB [MaxBurst]int32
	// Group buffers: the packets of the level's group and the entries they
	// matched (nil on a miss), handed to the template's LookupBurst.
	pkts [MaxBurst]*pkt.Packet
	outs [MaxBurst]*compiledEntry
	// Template staging, indexed by position within the gathered group: the
	// key material computed for the whole burst before any probe (compound
	// hash keys, LPM addresses) and the batched probe results.
	gidx   [MaxBurst]int32
	keys   [MaxBurst]hashKey
	addrs  [MaxBurst]uint32
	values [MaxBurst]uint32
	hash   exacthash.BatchScratch
	// cache is the verdict-cache staging (cacheScratch), allocated only
	// for workers that actually own a FlowCache — it is ~11KB, and the
	// default cache-off scratch must not carry it.
	cache *cacheScratch
	// ctr is the worker's private flow-counter delta accumulator
	// (flowctr.go), non-nil only on a datapath compiled with
	// Options.UpdateCounters.
	ctr *flowCtrAccum
}

// cacheScratch is the burst-local staging of the verdict-cache probe
// (flowcache.go), indexed by burst slot: the masked key/hash/set-base of each
// slot, whether the slot's verdict may be installed on the way out, the
// write-set of the actions its walk executed, the stage buckets it visited,
// and the list of miss slots (the wave engine ping-pongs the frontiers, so
// the miss list needs its own array).
type cacheScratch struct {
	ckey     [MaxBurst]flowKey
	chash    [MaxBurst]uint32
	cbase    [MaxBurst]uint32
	cinstall [MaxBurst]bool
	w        [MaxBurst]writeSet
	stages   [MaxBurst]stageWalk
	miss     [MaxBurst]int32
	// ctrs records, per miss slot, the Counters pointers of the entries the
	// walk matched, so the install pass can memoize them alongside the
	// verdict (counters-enabled datapaths only — see ctrList).
	ctrs [MaxBurst]ctrList
}

// record folds what slot i's walk just executed of matched entry ce, which
// ended with step, into the slot's write-set — its apply-actions up to a
// drop; unless that drop ended the walk, its write-metadata; at the end of
// the pipeline, the merged action set — and, on a counters-enabled datapath,
// notes the entry's counter pointer.
func (cs *cacheScratch) record(i int, ce *compiledEntry, step openflow.Step, set openflow.ActionList, counters bool) {
	w := &cs.w[i]
	w.addList(ce.ins.ApplyActions)
	if step != openflow.StepDropped && ce.ins.MetadataMask != 0 {
		w.writeMetadata(ce.ins.WriteMetadata, ce.ins.MetadataMask)
	}
	if step == openflow.StepTerminal {
		w.addList(set)
	}
	if counters {
		cs.ctrs[i].add(ce.counters)
	}
}

// ProcessBurst sends a burst of packets through the compiled fast path,
// filling vs[i] with the verdict for ps[i].  len(vs) must be at least
// len(ps).  The burst engine parses all packets to the specialized layer in
// one pass, then walks the pipeline in waves: packets that are waiting at
// the same trampoline are classified through the table's template in a
// single batched lookup, so each template (and the trampoline's atomic
// pointer) is touched once per burst per table instead of once per packet.
//
// Like Process, ProcessBurst is safe to call concurrently with flow-table
// updates and with other callers: it pins a recycled worker — epoch, burst
// scratch and any verdict cache — for the duration of the burst.  A flow-mod
// that overlaps the burst may be seen by some of its packets and not by
// others: each packet sees every table either before or after the mod
// (update.go).  It is never metered, whether or not the datapath carries a meter, and it leaves the
// worker's counter deltas to be folded later (flowctr.go).  Dedicated
// forwarding workers RegisterWorker once and call the handle's ProcessBurst
// inside their Enter/Exit bracket instead.
func (d *Datapath) ProcessBurst(ps []*pkt.Packet, vs []openflow.Verdict) {
	w := d.pinGet()
	w.Enter()
	// Deferred so a panicking classify cannot leak one of the bounded pool
	// slots, nor park a worker in the entered state where synchronize()
	// would wait on it forever.
	defer func() { w.Exit(); d.pinPut(w) }()
	w.ProcessBurst(ps, vs)
}

// processBurst runs one burst of at most MaxBurst packets to completion over
// the caller-owned scratch sc.  It records no steps and is never metered
// (recordBurst is the recording burst).  When the published pipeline arms the
// verdict cache (fc is then the caller's, non-nil), the burst first runs a
// cache probe pass: hits replay their memoized verdict immediately and only
// the misses enter the wave engine, installing their verdicts on the way out.
func (d *Datapath) processBurst(sc *burstScratch, sn *snapshot, fc *FlowCache, ps []*pkt.Packet, vs []openflow.Verdict) {
	n := len(ps)

	// Stage 1: one parser pass over the whole burst, to the layer the
	// compiled pipeline requires.
	pkt.ParseToBurst(ps, sn.parserLayer)
	for i := 0; i < n; i++ {
		vs[i].Reset()
	}

	if sn.armed {
		d.processBurstCached(sc, sn, fc, ps, vs)
		return
	}

	// Stages 2+3: wave execution, breadth first over the goto DAG.
	//
	// Level 0 is one group by construction — every packet starts at
	// d.start — so it is classified straight from ps through the start
	// table's template in a single batched lookup, and per-slot engine
	// state (trampoline, frontier entry, action set) is materialized only
	// for the packets that survive into level 1.  Single-table pipelines
	// never touch the frontier machinery at all.
	cur := sc.frontA[:]
	curLen := 0
	uniform := true
	var nextTr *trampoline
	{
		dp := sn.start.load()
		if dp == nil {
			// A table with nothing published drops, as in runWaves.
			for i := 0; i < n; i++ {
				vs[i].Dropped = true
			}
			return
		}
		dp.LookupBurst(ps, sc.outs[:n], sc)
		set0 := sc.set0
		for j := 0; j < n; j++ {
			p, v := ps[j], &vs[j]
			v.Tables++
			ce := sc.outs[j]
			if ce == nil {
				sn.miss(v, sn.start.punt)
				continue
			}
			if sc.ctr != nil {
				sc.ctr.add(ce.counters, len(p.Data))
			}
			// Level 0 starts every packet on an empty action set, so only
			// a generic program runs Execute.
			set0 = set0[:0]
			var step openflow.Step
			if ce.ins.prog.generic {
				step = ce.ins.Execute(p, v, &set0, sn.numPorts, sn.start.punt)
			} else {
				step = ce.ins.prog.run(p, v, sn.start.punt)
			}
			if step != openflow.StepNext {
				continue
			}
			sc.tramp[j] = ce.next
			// Persist the accumulated action set for the next level; the
			// per-slot slice is only touched when there is something to
			// carry (or stale state to clear).
			if len(set0) > 0 {
				sc.sets[j] = append(sc.sets[j][:0], set0...)
			} else if len(sc.sets[j]) > 0 {
				sc.sets[j] = sc.sets[j][:0]
			}
			if curLen == 0 {
				nextTr = ce.next
			} else if ce.next != nextTr {
				uniform = false
			}
			cur[curLen] = int32(j)
			curLen++
		}
		sc.set0 = set0
	}

	d.runWaves(sc, sn, ps, vs, curLen, uniform, 1, false, nil)
}

// recordBurst runs p through the wave engine as a recording burst of one over sc,
// filling in v.  It starts at level 0, never probes a cache and steps every
// level per slot, so each lookup appends its TraceStep to steps.  It counts
// matched entries on sc's accumulator when sc has one; Trace's has none.
func (d *Datapath) recordBurst(sc *burstScratch, sn *snapshot, p *pkt.Packet, v *openflow.Verdict, steps *[]TraceStep) {
	pkt.ParseTo(p, sn.parserLayer)
	v.Reset()
	sc.pkts[0], sc.tramp[0], sc.frontA[0] = p, sn.start, 0
	sc.sets[0] = sc.sets[0][:0]
	d.runWaves(sc, sn, sc.pkts[:1], unsafe.Slice(v, 1), 1, false, 0, false, steps)
}

// runWaves executes the breadth-first wave loop over the goto DAG for the
// curLen packets of the sc.frontA frontier (slot indices into ps/vs),
// starting at the given pipeline level; it is the only code that walks past
// level 0.  The current frontier holds every live packet at the current
// pipeline depth.  A uniform level — every packet waiting at the same
// trampoline, tracked from the previous level's survivors — is classified
// through the table's template in one batched lookup before the per-slot
// pass, so the template (and the trampoline's atomic pointer) is touched once
// per burst instead of once per packet.  On a fragmented level (packets
// diverged, say, into per-CE user tables) the per-slot pass does each slot's
// own Lookup instead: tiny groups gain nothing from staging, and the
// survivors re-merge into a single batch before a shared downstream table
// (the routing LPM) is visited.  Either way one pass executes the outcomes
// and builds the next frontier.  It is shared verbatim by the plain,
// cache-fronted and recording bursts so their semantics cannot drift.  When
// rec is set (the cache-fronted walk), every stage visited, a miss or an
// empty table too, and every executed entry are recorded in the slot's
// cacheScratch state so the install pass can memoize them with the verdict.
// When steps is non-nil (recordBurst's burst of one), no level is
// batched and each per-slot Lookup fills in the TraceStep it appends: the
// only place a step is recorded.
func (d *Datapath) runWaves(sc *burstScratch, sn *snapshot, ps []*pkt.Packet, vs []openflow.Verdict, curLen int, uniform bool, startLevel int, rec bool, steps *[]TraceStep) {
	cur, next := sc.frontA[:], sc.frontB[:]
	for level := startLevel; curLen > 0; level++ {
		if level >= openflow.MaxPipelineDepth {
			// The depth guard: a walk this deep drops.
			for k := 0; k < curLen; k++ {
				vs[cur[k]].Dropped = true
			}
			break
		}
		if uniform {
			dp := sc.tramp[cur[0]].load()
			if dp == nil {
				// A table with nothing published drops.
				for k := 0; k < curLen; k++ {
					i := cur[k]
					vs[i].Dropped = true
					if rec {
						sc.cache.stages[i].visit(sc.tramp[i].bucket)
					}
				}
				break
			}
			for k := 0; k < curLen; k++ {
				sc.pkts[k] = ps[cur[k]]
			}
			dp.LookupBurst(sc.pkts[:curLen], sc.outs[:curLen], sc)
		}
		nextLen := 0
		nextUniform := true
		var nextTr *trampoline
		for k := 0; k < curLen; k++ {
			i := int(cur[k])
			p, v := ps[i], &vs[i]
			tr := sc.tramp[i]
			if rec {
				sc.cache.stages[i].visit(tr.bucket)
			}
			var ce *compiledEntry
			var st *TraceStep
			if uniform {
				ce = sc.outs[k]
			} else {
				dp := tr.load()
				if dp == nil {
					v.Dropped = true
					continue
				}
				if steps != nil {
					*steps = append(*steps, TraceStep{Table: tr.id, Template: dp.Kind(), Entries: dp.Len(), bucket: tr.bucket})
					st = &(*steps)[len(*steps)-1]
				}
				ce = dp.Lookup(p, st)
			}
			v.Tables++
			if ce == nil {
				sn.miss(v, tr.punt)
				continue
			}
			if sc.ctr != nil {
				sc.ctr.add(ce.counters, len(p.Data))
			}
			var step openflow.Step
			if ce.ins.prog.generic || len(sc.sets[i]) > 0 {
				step = ce.ins.Execute(p, v, &sc.sets[i], sn.numPorts, tr.punt)
			} else {
				step = ce.ins.prog.run(p, v, tr.punt)
			}
			if rec {
				sc.cache.record(i, ce, step, sc.sets[i], d.opts.UpdateCounters)
			}
			if st != nil {
				st.matched(ce)
				st.Outcome = step
			}
			if step != openflow.StepNext {
				continue
			}
			sc.tramp[i] = ce.next
			if nextLen == 0 {
				nextTr = ce.next
			} else if ce.next != nextTr {
				nextUniform = false
			}
			next[nextLen] = int32(i)
			nextLen++
		}
		cur, next = next, cur
		curLen = nextLen
		uniform = nextUniform && steps == nil
	}
}

// processBurstCached is the verdict-cache front of the burst engine: probe
// every packet of the (already parsed, verdict-reset) burst against the
// worker's cache, replay the memoized verdict program for the hits, run only
// the misses through the wave engine, and memoize their verdicts on the way
// out.  Callers guarantee sn.armed and fc != nil.
func (d *Datapath) processBurstCached(sc *burstScratch, sn *snapshot, fc *FlowCache, ps []*pkt.Packet, vs []openflow.Verdict) {
	n := len(ps)
	start := sn.start
	if start.load() == nil {
		// A start table with nothing published drops, as on the plain
		// burst path.  The packets still ran the cache-enabled path, so
		// they count as misses (fold exactness: hits+misses == processed).
		for i := 0; i < n; i++ {
			vs[i].Dropped = true
		}
		fc.bump(0, n, 0)
		return
	}

	cs := sc.cache

	// Probe pass A: pack every packet's masked key into its staging slot,
	// hashing it on the way, derive its set base, and read the set's tag
	// line.  On large caches the probe lines are cold; issuing all the tag
	// touches before any full probe lets the memory system overlap those
	// misses across the burst.  Only the tag line is touched: an entry line
	// is first read in pass B, on a tag match, so a hit on a cold entry
	// still waits for its own line there.
	var touch uint32
	for i := 0; i < n; i++ {
		p := ps[i]
		if p.Metadata != 0 {
			// Non-zero entry metadata is outside the key; the packet takes
			// the full walk and its verdict is not memoized.
			cs.cbase[i] = probeSkip
			continue
		}
		h := cs.ckey[i].load(p, &sn.keyMask)
		cs.chash[i] = h
		base := (h & fc.mask) * flowCacheWays
		cs.cbase[i] = base
		touch += fc.tags[base]
	}
	fc.touchSink = touch

	// Probe pass B: the actual lookups, tag first.  Hits replay their
	// verdict program on the spot; misses join the level-0 frontier at the
	// start table, with their engine slot state (trampoline, action set)
	// primed the way the plain path's specialized level 0 would leave it.
	cur := sc.frontA[:]
	missN := 0
	hits, stale := 0, 0
	for i := 0; i < n; i++ {
		p := ps[i]
		if cs.cbase[i] != probeSkip {
			if e, ei, st := fc.lookupAt(cs.cbase[i], cs.chash[i], &cs.ckey[i], sn); e != nil {
				e.apply(p, &vs[i])
				if e.nctr != 0 {
					// Credit the entries the memoized walk matched, so
					// per-flow counters stay exact across hits.
					bumpCtrs(&fc.ctrs[ei], e.nctr, len(p.Data), sc.ctr)
				}
				hits++
				continue
			} else {
				cs.cinstall[i] = true
				if st {
					stale++
				}
			}
		} else {
			cs.cinstall[i] = false
		}
		sc.tramp[i] = start
		if len(sc.sets[i]) > 0 {
			sc.sets[i] = sc.sets[i][:0]
		}
		cs.w[i] = writeSet{}
		cs.stages[i].n = 0
		cs.ctrs[i].reset()
		cs.miss[missN] = int32(i)
		cur[missN] = int32(i)
		missN++
	}
	fc.bump(hits, missN, stale)
	if missN == 0 {
		return
	}

	d.runWaves(sc, sn, ps, vs, missN, true, 0, true, nil)

	// Install pass: memoize every miss whose verdict the cache can express —
	// at most one output port and a walk shallow enough for the encoding —
	// with the write-set its walk recorded.  On a counters-enabled datapath
	// the matched entries' counter pointers ride along (walks deeper than the
	// counter list are not memoized there).
	for j := 0; j < missN; j++ {
		i := int(cs.miss[j])
		if !cs.cinstall[i] {
			continue
		}
		flags, out, tables, puntTable, ok := entryFromVerdict(&vs[i])
		if !ok {
			continue
		}
		var ctrs *[cacheMaxCtrs]*openflow.Counters
		var nctr uint8
		if d.opts.UpdateCounters {
			if cs.ctrs[i].over {
				continue
			}
			ctrs, nctr = &cs.ctrs[i].ptrs, cs.ctrs[i].n
		}
		fc.install(cs.chash[i], &cs.ckey[i], sn.gen, cs.stages[i].stages(), flags, out, tables, puntTable, &cs.w[i], ctrs, nctr)
	}
}

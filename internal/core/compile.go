package core

import (
	"cmp"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"eswitch/internal/lockcount"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// trampoline is the indirection every goto_table jump goes through (§3.3):
// the compiled table it points to can be replaced atomically, which is what
// makes per-table rebuilds transactional and non-disruptive (§3.4).  The
// trampoline also carries its table's ID; punt, the table its verdicts name
// for punts-to-controller and misses (its own ID, or on a stage the
// decomposer derived, the source table the controller knows); and its stage
// bucket (scope.go) — so none of them needs per-stage bookkeeping.
type trampoline struct {
	ptr    atomic.Pointer[tableSlot]
	id     openflow.TableID
	punt   openflow.TableID
	bucket uint8
}

type tableSlot struct {
	dp tableDatapath
}

func (tr *trampoline) load() tableDatapath {
	if s := tr.ptr.Load(); s != nil {
		return s.dp
	}
	return nil
}

func (tr *trampoline) store(dp tableDatapath) { tr.ptr.Store(&tableSlot{dp: dp}) }

// snapshot is the immutable datapath-wide state the hot path roots at: the
// entry trampoline plus the handful of scalars every packet consults.  It is
// published through Datapath.snap with one atomic store (the writer mutex
// serializes publishers) and never mutated afterwards, so the steady-state
// burst loop reads it with one atomic load and takes no locks.  Per-table contents are one more level of the same
// scheme: each compiled table is behind an atomically-swapped trampoline.
type snapshot struct {
	start       *trampoline
	parserLayer pkt.Layer
	numPorts    int
	missToCtrl  bool
	// gen is the datapath generation this snapshot was published under.
	// Every flow-mod bumps it after its table mutations are in place, so a
	// cache entry recorded under an older generation is never served
	// unexamined once the mutation is visible (flowcache.go).
	gen uint64
	// mods is the flow-mod scope log as of gen (scope.go), at most
	// modLogWindow records: its last n describe the n mutations since
	// generation gen-n, which is what lets a probe keep an older entry no
	// mod since has touched.  Empty on a datapath compiled without caches,
	// and before the first mutation.  stamps are the per-stage-bucket
	// generations of the newest mods and the newest barrier's, which let a
	// probe serve an older entry whose stages no mod reached without reading
	// the log at all.
	mods   []modScope
	stamps stageStamps
	// keyMask is the compiled cache key: the bits of a packet's flowKey the
	// pipeline's verdict can depend on (keyEntry, scope.go).  The cache probes
	// on the packet's key loaded under it (flowKey.load).
	keyMask flowKey
	// armed reports whether the burst path probes the verdict cache: the
	// datapath was compiled with one, nothing the pipeline matches lies
	// outside the flow key (uncovered is empty), and some path is deeper
	// than one direct-code, hash or LPM probe (Datapath.deep).  Per-entry
	// counters do not affect it — the cache memoizes the matched entries'
	// counter pointers and keeps statistics exact on hits (flowctr.go).
	// uncovered rides along to explain an unarmed cache (unarmedWhy).
	armed     bool
	uncovered openflow.FieldSet
	// regions are the compiled tables' simulated memory, which a metered
	// walk's steps are priced against (cyclemodel.go); nil when unmetered.
	regions tableRegions
}

// miss records a table miss at the given table in the verdict per the
// pipeline's miss behaviour.
func (sn *snapshot) miss(v *openflow.Verdict, table openflow.TableID) {
	v.TableMiss = true
	if sn.missToCtrl {
		v.ToController = true
		v.NotePunt(openflow.PuntMiss, table)
	} else {
		v.Dropped = true
	}
}

// Datapath is a compiled ESWITCH fast path: the specialized representation of
// one OpenFlow pipeline plus the machinery to keep it up to date.
//
// Concurrency model: the hot path (Process, ProcessBurst and the worker
// handles') is lock-free — it roots at the atomically-published snapshot and
// follows atomically-swapped trampolines; only a metered Process serializes,
// on meterMu.  Updates (AddFlow, DeleteFlow, InstallPipeline) are
// serialized by mu, build the new representation off to the side, publish it
// atomically, and reclaim superseded copies only after every registered worker
// epoch has passed a quiescent point (see epoch.go and update.go).
type Datapath struct {
	opts Options
	// steps is the record every metered Process's recording burst reuses
	// before priceWalk charges it to Options.Meter; no other entry point is
	// ever metered.  meterMu makes Process's concurrent callers the single
	// writer steps and the meter need.
	steps   []TraceStep
	meterMu sync.Mutex
	// regions is the writer-owned copy of snapshot.regions: on a metered
	// datapath buildTable carves one for each table it builds.
	regions tableRegions

	// pipeline is the declarative source of truth; updates are applied to
	// it first and then reflected into the compiled representation.
	pipeline *openflow.Pipeline
	// source is the pipeline flow-mods name and whose entries count packets:
	// pipeline itself, or the one decomposition rewrote (origin maps each
	// derived entry to its source entry, where its packets count).
	source *openflow.Pipeline
	origin map[*openflow.FlowEntry]*openflow.FlowEntry

	parserLayer pkt.Layer
	numPorts    int

	// mu serializes writers (flow-mods, pipeline installs) and admin reads
	// (Stages); the forwarding path never touches it.  The acquisition
	// counter backs the zero-lock acceptance tests.
	mu          lockcount.Mutex
	trampolines map[openflow.TableID]*trampoline
	// insCache interns instruction sets by AppendKey (internInstructions).
	insCache map[string]*sharedIns
	keyBuf   []byte

	// snap is the atomically-published immutable snapshot the hot path
	// roots at.
	snap atomic.Pointer[snapshot]

	// epochs tracks the registered forwarding workers for grace periods.
	epochs epochDomain
	// pins is a bounded free-list of registered workers for anonymous
	// Process/ProcessBurst callers (the facade's safe-by-default entry
	// points).  Each pinned worker carries its own epoch, burst scratch and
	// — where the pipeline arms one — verdict cache.  A bounded list —
	// rather than an object pool the GC empties — keeps the epoch domain and
	// the cache registry from accumulating registered-but-evicted entries;
	// pinned counts how many have ever been created, so callers beyond the
	// bound briefly wait for a free worker instead of churning through
	// registrations (a worker is not cheap: a burst scratch and, on an armed
	// pipeline, a verdict cache of Options.FlowCache entries).
	pins   chan *Worker
	pinned atomic.Int64

	// versions holds the per-table shadow copies the incremental update
	// path ping-pongs between (writer-owned; see update.go).
	versions map[openflow.TableID]*tableVersion

	// gen is the writer-owned datapath generation, bumped by every flow-mod
	// after its table mutations (logMod) and published through the snapshot.
	gen uint64
	// dirty maps each table to the match fields some entry upstream of it
	// may have rewritten, and mods is the bounded log of what each
	// generation's mutation could have changed (scope.go).  Both exist only
	// on a datapath whose workers carry caches; dirty != nil is that test.
	dirty map[openflow.TableID]openflow.FieldSet
	mods  []modScope
	// stamps is the writer-owned copy of snapshot.stamps, and stages counts
	// the compiled stages numbered so far (newTrampoline).
	stamps stageStamps
	stages int
	// flushes counts the barrier records logged: the mutations after which
	// no older cache entry could be revalidated.
	flushes atomic.Uint64
	// keyMask, keyFields and deep are the compiled cache key's accumulators
	// (keyEntry, scope.go), kept — like dirty — only on a datapath whose
	// workers may carry caches: the key bits the pipeline reads, the fields it
	// matches (for the coverage test), and whether any path is deeper
	// than one direct-code, hash or LPM stage (an entry with a goto, or a
	// table compiled to the linked-list template).  All three only grow —
	// deletes never shrink them, a deliberately conservative choice that keeps
	// flow-mods O(1) — until InstallPipeline starts them over.
	keyMask   flowKey
	keyFields openflow.FieldSet
	deep      bool
	// caches registers the live workers' verdict caches for stats folds.
	caches cacheRegistry

	// stats
	rebuilds     atomic.Uint64
	incremental  atomic.Uint64
	decomposedBy int // extra tables produced by decomposition
}

// Compile specializes the pipeline into an ESWITCH datapath.
func Compile(pl *openflow.Pipeline, opts Options) (*Datapath, error) {
	return compile(pl.Clone(), opts)
}

// compile specializes pl and takes it over as the datapath's source: the
// tables the decomposer leaves alone execute pl's own entries.
func compile(pl *openflow.Pipeline, opts Options) (*Datapath, error) {
	if opts.DirectCodeMaxEntries == 0 {
		opts.DirectCodeMaxEntries = DefaultOptions().DirectCodeMaxEntries
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("eswitch: invalid pipeline: %w", err)
	}
	d := &Datapath{
		opts:     opts,
		numPorts: pl.NumPorts,
		insCache: make(map[string]*sharedIns),
		versions: make(map[openflow.TableID]*tableVersion),
	}
	d.pins = make(chan *Worker, maxPinnedWorkers)
	d.source, d.pipeline = pl, pl
	var derivedFrom map[openflow.TableID]openflow.TableID
	if opts.Decompose {
		if decomposed, from, origin := decompose(pl, opts); len(from) > 0 {
			d.pipeline, d.origin, d.decomposedBy = decomposed, origin, len(from)
			derivedFrom = from
		}
	}
	working := d.pipeline
	d.parserLayer = working.RequiredLayer()
	d.trampolines = make(map[openflow.TableID]*trampoline, working.NumTables())
	for _, t := range working.Tables() {
		tr := d.newTrampoline(t.ID)
		if src, ok := derivedFrom[t.ID]; ok {
			tr.punt = src
		}
	}
	for _, t := range working.Tables() {
		dp, err := d.buildTable(t)
		if err != nil {
			return nil, err
		}
		d.trampolines[t.ID].store(dp)
	}
	if opts.FlowCache > 0 {
		d.markAllDirty()
		d.keyMask = keyAlways
		for _, t := range working.Tables() {
			for _, e := range t.Entries() {
				d.keyEntry(e)
			}
		}
	}
	d.publish()
	return d, nil
}

// publish rebuilds the datapath-wide snapshot from the writer-owned fields
// and swaps it in with one atomic store (the writer mutex serializes
// publishers, so there is no competing writer to compare against); readers
// pick up the new snapshot on their next burst.
func (d *Datapath) publish() {
	uncovered := d.keyFields &^ cacheCoveredFields
	d.snap.Store(&snapshot{
		start:       d.trampolines[0],
		parserLayer: d.parserLayer,
		numPorts:    d.numPorts,
		missToCtrl:  d.pipeline.Miss == openflow.MissController,
		gen:         d.gen,
		mods:        d.mods[max(0, len(d.mods)-modLogWindow):],
		stamps:      d.stamps,
		keyMask:     d.keyMask,
		armed:       d.dirty != nil && uncovered == 0 && d.deep,
		uncovered:   uncovered,
		regions:     d.regions,
	})
}

// newTrampoline creates and registers table id's trampoline, numbering its
// stage and giving it its stage bucket (scope.go).
func (d *Datapath) newTrampoline(id openflow.TableID) *trampoline {
	tr := &trampoline{id: id, punt: id, bucket: 1 + uint8(d.stages%(stageBuckets-1))}
	d.stages++
	d.trampolines[id] = tr
	return tr
}

// MutexOps returns how many times the datapath's writer mutex has been
// acquired; tests assert it stays flat across steady-state forwarding.
func (d *Datapath) MutexOps() uint64 { return d.mu.Ops() }

// buildTable compiles one flow table into its selected template.
func (d *Datapath) buildTable(t *openflow.FlowTable) (tableDatapath, error) {
	a := analyzeTable(t, d.opts)
	var dp tableDatapath
	switch a.kind {
	case TemplateDirectCode:
		dc := newDirectCode(d.opts)
		dc.maxEntries = max(dc.maxEntries, t.Len()) // capacity for rebuild-free inserts is still bounded by analysis
		dp = dc
	case TemplateHash:
		dp = newHashTable(a.gather, t.Len(), d.opts)
	case TemplateLPM:
		dp = newLPMTable(a.lpmField)
	case TemplateLinkedList:
		dp = newListTable()
		d.deep = true
	}
	if m := d.opts.Meter; m != nil {
		d.regions = d.regions.carve(m, t.ID, dp)
	}
	for _, e := range t.Entries() {
		ce, err := d.compileEntry(e)
		if err != nil {
			return nil, err
		}
		dp.Insert(e, ce)
	}
	d.rebuilds.Add(1)
	return dp, nil
}

// compileEntry specializes one flow entry: its instruction set is interned in
// the shared instruction cache and its goto target resolved to a trampoline.
func (d *Datapath) compileEntry(e *openflow.FlowEntry) (*compiledEntry, error) {
	ce := &compiledEntry{
		ins:      d.internInstructions(&e.Instructions),
		counters: &cmp.Or(d.origin[e], e).Counters, // a derived entry counts on its source
		priority: e.Priority,
		match:    e.Match,
	}
	if ce.ins.HasGoto {
		tr, ok := d.trampolines[ce.ins.GotoTable]
		if !ok {
			return nil, fmt.Errorf("eswitch: goto_table %d has no compiled table", ce.ins.GotoTable)
		}
		ce.next = tr
	}
	return ce, nil
}

// internInstructions returns the shared record of an instruction set,
// creating it on first use: §3.1's shared action sets, widened to the whole
// set, with the set's action program compiled once beside it.  The key is
// built in the writer-owned keyBuf, so a hit allocates and compiles nothing.
func (d *Datapath) internInstructions(ins *openflow.Instructions) *sharedIns {
	d.keyBuf = ins.AppendKey(d.keyBuf[:0])
	if shared, ok := d.insCache[string(d.keyBuf)]; ok {
		return shared
	}
	shared := &sharedIns{prog: compileProgram(ins), Instructions: ins.Clone()}
	d.insCache[string(d.keyBuf)] = shared
	return shared
}

// ParserLayer returns the parsing depth the compiled parser template uses.
func (d *Datapath) ParserLayer() pkt.Layer { return d.snap.Load().parserLayer }

// Pipeline returns the (possibly decomposed) pipeline the datapath executes.
// It is handed out without a lock, and its flow tables build their order on
// read (a read may merge parked adds, see openflow.FlowTable): read it only
// while no flow-mod, Sweeper pass or FlowSamples call can run.
func (d *Datapath) Pipeline() *openflow.Pipeline { return d.pipeline }

// Rebuilds returns how many per-table template (re)builds have happened.
func (d *Datapath) Rebuilds() uint64 { return d.rebuilds.Load() }

// IncrementalUpdates returns how many updates were applied without a rebuild.
func (d *Datapath) IncrementalUpdates() uint64 { return d.incremental.Load() }

// TableTemplate reports which template a table was compiled into.
func (d *Datapath) TableTemplate(id openflow.TableID) (TemplateKind, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tr, ok := d.trampolines[id]
	if !ok {
		return 0, false
	}
	dp := tr.load()
	if dp == nil {
		return 0, false
	}
	return dp.Kind(), true
}

// TableStage describes one compiled table; the analytic performance model and
// the documentation tooling consume it.
type TableStage struct {
	ID       openflow.TableID
	Name     string
	Template TemplateKind
	Entries  int
}

// Stages returns a description of every compiled table in table-ID order.
func (d *Datapath) Stages() []TableStage {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TableStage, 0, len(d.trampolines))
	for _, t := range d.pipeline.Tables() {
		tr := d.trampolines[t.ID]
		if tr == nil {
			continue
		}
		dp := tr.load()
		if dp == nil {
			continue
		}
		out = append(out, TableStage{ID: t.ID, Name: t.Name, Template: dp.Kind(), Entries: dp.Len()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Process sends one packet through the compiled fast path, filling in the
// verdict.  It is a burst of one on a pinned worker (Worker.ProcessBurst), so
// it runs the engine the forwarding workers run, parses the packet only as
// deep as the pipeline requires and, on an armed pipeline, probes and fills
// that worker's verdict cache.  The worker's counter deltas are folded before
// it goes back on the free list, so per-flow counters are exact on return.
//
// On a metered datapath the packet takes a recording burst of one instead
// (recordBurst), under meterMu, and priceWalk charges its steps to the
// meter; the meter sees one writer at a time and counts every packet exactly.
//
// Process is safe to call from any number of goroutines concurrently with
// flow-table updates and with each other: the pinned worker's epoch covers
// the call, so updates cannot reclaim the state it reads.  Dedicated
// forwarding workers should RegisterWorker once and process bursts inside
// their own Enter/Exit bracket instead.
func (d *Datapath) Process(p *pkt.Packet, v *openflow.Verdict) {
	w := d.pinGet()
	w.Enter()
	// Deferred so a panicking classify cannot leak one of the bounded pool
	// slots, nor park a worker in the entered state where synchronize()
	// would wait on it forever.
	defer func() { w.Exit(); d.pinPut(w) }()
	sc := &w.scratch
	if m := d.opts.Meter; m != nil {
		d.meterMu.Lock()
		defer d.meterMu.Unlock()
		sn := d.snap.Load()
		d.steps = d.steps[:0]
		d.recordBurst(sc, sn, p, v, &d.steps)
		priceWalk(m, sn.parserLayer, d.steps, sn.regions)
	} else {
		// The burst rides in the scratch's group buffer: a slice over p
		// itself would move p to the heap on every call.
		sc.pkts[0] = p
		w.ProcessBurst(sc.pkts[:1], unsafe.Slice(v, 1))
	}
	if sc.ctr != nil {
		sc.ctr.flush()
	}
}

// ProcessUnlocked forwards to Process.  It is kept only because the
// benchmark harness (bench/ledger.go) still calls it; ROADMAP item 1A
// deletes it with that harness edit.
func (d *Datapath) ProcessUnlocked(p *pkt.Packet, v *openflow.Verdict) { d.Process(p, v) }

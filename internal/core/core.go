// Package core implements ESWITCH, the paper's primary contribution: a
// compiler and runtime that specializes an OpenFlow dataplane to the
// configured pipeline (§3).
//
// The compiler performs
//
//   - flow-table analysis: each flow table is mapped to the most efficient
//     of four flow-table templates — direct code, compound hash, LPM, and
//     linked list (tuple space search) — falling back along the chain of
//     Fig. 4 when a template's prerequisite is not met;
//   - optional flow-table decomposition (§3.2, Fig. 6): tables that would
//     otherwise end up in the slow linked-list template are rewritten into an
//     equivalent multi-table pipeline whose stages fit the fast templates;
//   - template specialization: per-field matcher templates are instantiated
//     as closures with the flow keys folded in as constants (the Go analogue
//     of patching keys into pre-compiled machine code, §3.3);
//   - linking: goto_table edges are resolved through trampolines —
//     atomically swappable per-table pointers — so a table can be rebuilt
//     side by side with the running datapath and swapped in transactionally
//     (§3.4).
//
// The runtime (Datapath) executes the compiled representation through one
// walker of the goto DAG, the burst engine (burst.go): it classifies a burst
// level by level, runs each matched entry's compiled action program
// (action.go) — or, where the program is generic or the action set is not
// empty, the interpreter's own instruction step,
// openflow.Instructions.Execute — and is what every entry point runs: worker
// bursts, ProcessBurst, and Process as a burst of one.
// Trace and a metered Process run a recording burst of one, which steps every
// level per slot: each template has one per-packet lookup, and a non-nil
// *TraceStep receives what that lookup examined (a nil one is forwarding).
// Trace returns the record; a metered datapath prices it (cyclemodel.go),
// which is how the cpumodel.Meter regenerates the paper's cycle- and
// cache-level figures deterministically without a charge inside any template.
package core

import (
	"fmt"

	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// TemplateKind identifies one of the paper's four flow-table templates
// (Fig. 4).
type TemplateKind uint8

// Flow-table templates in fallback order (most to least preferred for large
// tables; the direct-code template is preferred only for tiny tables).
const (
	// TemplateDirectCode compiles the rules of a small table straight into
	// a sequence of specialized matcher closures.
	TemplateDirectCode TemplateKind = iota
	// TemplateHash is the compound (exact-match, collision-free) hash over
	// the concatenation of globally-masked fields.
	TemplateHash
	// TemplateLPM is the DIR-24-8 longest-prefix-match template.
	TemplateLPM
	// TemplateLinkedList is tuple space search, the last-resort fallback.
	TemplateLinkedList
)

// String names the template as in the paper.
func (k TemplateKind) String() string {
	switch k {
	case TemplateDirectCode:
		return "direct code"
	case TemplateHash:
		return "compound hash"
	case TemplateLPM:
		return "LPM"
	case TemplateLinkedList:
		return "linked list"
	default:
		return fmt.Sprintf("template(%d)", uint8(k))
	}
}

// Options configure compilation.
type Options struct {
	// DirectCodeMaxEntries is the largest table compiled with the direct
	// code template; the paper calibrates it to 4 (Fig. 9).
	DirectCodeMaxEntries int
	// Decompose enables flow-table decomposition (§3.2).  Real-world
	// pipelines are usually already optimally decomposed, so it is off by
	// default and enabled per use case.
	Decompose bool
	// UpdateCounters maintains per-flow-entry counters on the fast path.
	UpdateCounters bool
	// FlowCache, when positive, gives every registered worker a private
	// verdict cache of (roughly, rounded up to a power of two) this many
	// entries in front of the compiled pipeline: packets whose verdict was
	// memoized skip the template walk entirely.  The cache is keyed on the
	// bits the pipeline reads and armed only where the walk is deeper than
	// one probe — both decided by the compiler at publish time; see
	// flowcache.go.  With UpdateCounters on, cache entries additionally
	// memoize the matched entries' counter pointers so hits keep per-flow
	// statistics exact.  Zero disables it.  Memory note:
	// every worker that forwards through an armed pipeline — including the
	// facade's recycled pinned workers — owns a cache of entries x 192
	// bytes, so size it for the expected concurrent flow count, not "as big
	// as possible".
	FlowCache int
	benchShim
	// MaxTableEntries, when positive, caps every flow table's entry count:
	// an AddFlow that would grow a table past the cap fails with a
	// *TableFullError (surfaced to OpenFlow controllers as
	// OFPET_FLOW_MOD_FAILED/TABLE_FULL) instead of growing without bound.
	// Replacing an existing entry (same priority and match) never counts
	// against the cap.  Zero means unlimited.
	MaxTableEntries int
	// Meter, when non-nil, is charged the cycle model's price of every
	// packet sent through Process: a metered Process runs a recording burst
	// of one, which never probes a cache, and priceWalk reads its steps.
	// Bursts are never metered.
	Meter *cpumodel.Meter
}

// TableFullError is the table-capacity guardrail's error: the AddFlow was
// rejected because the target table is at Options.MaxTableEntries.
type TableFullError struct {
	Table openflow.TableID
	Limit int
}

func (e *TableFullError) Error() string {
	return fmt.Sprintf("core: table %d is full (%d entries)", e.Table, e.Limit)
}

// TableFull marks the error for protocol layers that must map it to
// OFPET_FLOW_MOD_FAILED/TABLE_FULL without importing this package.
func (e *TableFullError) TableFull() bool { return true }

// DefaultOptions returns the paper's defaults.
func DefaultOptions() Options {
	return Options{
		DirectCodeMaxEntries: 4,
		Decompose:            false,
		UpdateCounters:       false,
	}
}

// compiledEntry is the specialized form of one flow entry: its instruction
// set and action program — one record shared by every entry with identical
// instructions (internInstructions, §3.1) — and the trampoline of its goto
// target (nil when terminal).
type compiledEntry struct {
	ins      *sharedIns
	next     *trampoline
	counters *openflow.Counters
	// entry is the pipeline entry compiled here (for a decomposed table,
	// the derived entry; counters stay its source's), whose priority and
	// match incremental updates and the tracer read; the hot path never
	// consults it.  The datapath owns its pipeline's entries (Compile takes
	// the pipeline over, AddFlow the entry) and never modifies them, so the
	// compiled entry needs no copy.
	entry *openflow.FlowEntry
}

// matcherFunc is a specialized per-field matcher: the flow key is folded into
// the closure, mirroring the paper's matcher templates patched with constants.
type matcherFunc func(p *pkt.Packet) bool

// tableDatapath is the common interface of the four compiled table templates.
// It carries two lookups and no more (TestTableDatapathLookupSurface), both
// driven by the burst engine: the per-packet one for a fragmented level,
// recording or not, and the batched one for level 0 and uniform levels.
type tableDatapath interface {
	// Kind returns the template implementing the table.
	Kind() TemplateKind
	// Len returns the number of compiled entries.  Readers call it beside
	// the writer (a recording burst notes it per step), so it is race-free.
	Len() int
	// Lookup classifies the packet, returning the matched entry (nil on a
	// table miss).  A non-nil st receives what the lookup examined
	// (TraceStep.Examined and Offset) and nothing else; only a recording
	// burst passes one.
	Lookup(p *pkt.Packet, st *TraceStep) *compiledEntry
	// LookupBurst classifies a burst in one pass, writing the entry matched
	// by ps[i] to outs[i] (len(outs) == len(ps) <= MaxBurst).  sc provides
	// reusable per-worker scratch for staging key material; templates that
	// can amortize per-lookup overhead (compound hash, LPM) compute all
	// keys of the burst before probing.
	LookupBurst(ps []*pkt.Packet, outs []*compiledEntry, sc *burstScratch)
	// Insert adds a compiled entry.  A table no trampoline has published
	// yet absorbs every entry; a published one (an updater) reports false
	// when it cannot absorb this one in place, and the caller rebuilds it.
	Insert(e *openflow.FlowEntry, ce *compiledEntry) bool
}

// updater is the part of tableDatapath the compound-hash and LPM templates
// implement: the flow-mods they apply in place to the one published copy,
// under the update contract of update.go.  Every other template is rebuilt.
type updater interface {
	// publish is called as the trampoline publishes the table: from then
	// on every store a reader can see is atomic, and a retired resource is
	// reused only after quiesce (a grace period) has been called.
	publish(quiesce func())
	// CanInsert reports whether the entry can be added incrementally
	// without violating the template's prerequisite.
	CanInsert(e *openflow.FlowEntry) bool
	// Remove deletes entries matching the given match (and priority when
	// non-negative), returning how many were removed.
	Remove(match *openflow.Match, priority int) int
	// Replace swaps in ce as the compiled form of the installed entry with
	// e's match and priority, reporting whether the template could: the
	// key does not change, so the lookup structure does not either.
	Replace(e *openflow.FlowEntry, ce *compiledEntry) bool
}

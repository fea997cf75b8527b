package openflow

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"eswitch/internal/pkt"
)

// TableID identifies a flow table within a pipeline.  OpenFlow limits the
// wire-visible range to 0–254, but internally decomposed pipelines (§3.2) may
// use more, so the type is wider than uint8 on purpose.
type TableID uint16

// Instructions is the instruction set attached to a flow entry.
type Instructions struct {
	// ApplyActions are executed immediately, in order, when the entry
	// matches.
	ApplyActions ActionList
	// WriteActions are merged into the packet's action set, executed when
	// pipeline processing ends.
	WriteActions ActionList
	// ClearActions clears the accumulated action set before WriteActions
	// are merged.
	ClearActions bool
	// GotoTable, when HasGoto is set, sends the packet to the given table
	// for further processing.
	GotoTable TableID
	HasGoto   bool
	// WriteMetadata updates the packet metadata register under
	// MetadataMask before the next table is consulted.
	WriteMetadata uint64
	MetadataMask  uint64
}

// Goto returns instructions that only jump to the given table.
func Goto(t TableID) Instructions { return Instructions{GotoTable: t, HasGoto: true} }

// Apply returns instructions that apply the given actions and terminate.
func Apply(actions ...Action) Instructions { return Instructions{ApplyActions: actions} }

// ApplyThenGoto returns instructions that apply the actions and continue at
// the given table.
func ApplyThenGoto(t TableID, actions ...Action) Instructions {
	return Instructions{ApplyActions: actions, GotoTable: t, HasGoto: true}
}

// String renders the instructions in ovs-ofctl-like syntax.
func (ins Instructions) String() string {
	parts := []string{}
	if len(ins.ApplyActions) > 0 {
		parts = append(parts, "apply:"+ins.ApplyActions.String())
	}
	if ins.ClearActions {
		parts = append(parts, "clear_actions")
	}
	if len(ins.WriteActions) > 0 {
		parts = append(parts, "write:"+ins.WriteActions.String())
	}
	if ins.MetadataMask != 0 {
		parts = append(parts, fmt.Sprintf("write_metadata:%#x/%#x", ins.WriteMetadata, ins.MetadataMask))
	}
	if ins.HasGoto {
		parts = append(parts, fmt.Sprintf("goto_table:%d", ins.GotoTable))
	}
	if len(parts) == 0 {
		return "drop"
	}
	return strings.Join(parts, " ")
}

// Equal reports whether two instruction sets are identical.
func (ins Instructions) Equal(o Instructions) bool {
	return ins.ApplyActions.Equal(o.ApplyActions) &&
		ins.WriteActions.Equal(o.WriteActions) &&
		ins.ClearActions == o.ClearActions &&
		ins.HasGoto == o.HasGoto &&
		(!ins.HasGoto || ins.GotoTable == o.GotoTable) &&
		ins.WriteMetadata == o.WriteMetadata &&
		ins.MetadataMask == o.MetadataMask
}

// AppendKey appends a compact identity key of the instructions to b: two
// instruction sets get the same key exactly when Equal holds between them.
// Datapaths intern identical instruction sets by it (§3.1).
func (ins *Instructions) AppendKey(b []byte) []byte {
	var flow uint64 // bit 0: clear-actions; above it, no goto or its target + 1
	if ins.HasGoto {
		flow = 2 + 2*uint64(ins.GotoTable)
	}
	if ins.ClearActions {
		flow |= 1
	}
	b = binary.AppendUvarint(b, flow)
	b = binary.LittleEndian.AppendUint64(b, ins.WriteMetadata)
	b = binary.LittleEndian.AppendUint64(b, ins.MetadataMask)
	return ins.WriteActions.appendKey(ins.ApplyActions.appendKey(b))
}

// clone returns a deep copy of the instructions.
func (ins Instructions) clone() Instructions {
	c := ins
	c.ApplyActions = ins.ApplyActions.Clone()
	c.WriteActions = ins.WriteActions.Clone()
	return c
}

// Counters hold per-entry statistics; all fields are updated atomically.
type Counters struct {
	Packets atomic.Uint64
	Bytes   atomic.Uint64
}

// Add records one packet of the given length.
func (c *Counters) Add(bytes int) {
	c.Packets.Add(1)
	c.Bytes.Add(uint64(bytes))
}

// FlowEntry is a single prioritized rule in a flow table.
type FlowEntry struct {
	// Priority orders entries within a table; higher matches first.
	Priority int
	// Match selects the packets the entry applies to.
	Match *Match
	// Instructions describe what happens on a match.
	Instructions Instructions
	// Cookie is an opaque controller-assigned identifier.
	Cookie uint64
	// IdleTimeout, when non-zero, is the number of seconds of inactivity
	// (no packet matching the entry) after which the entry expires; the
	// lifecycle sweeper (core.Sweeper) removes it lazily off the hot path
	// and emits a FlowRemoved with reason "idle timeout".  Zero means never.
	IdleTimeout uint16
	// HardTimeout, when non-zero, is the number of seconds after
	// installation at which the entry expires regardless of activity.
	HardTimeout uint16
	// Counters accumulate per-entry statistics.
	Counters Counters

	// seq is the insertion sequence number, used to keep the relative
	// order of equal-priority entries stable.
	seq uint64
}

// NewEntry builds a flow entry.
func NewEntry(priority int, match *Match, ins Instructions) *FlowEntry {
	if match == nil {
		match = NewMatch()
	}
	return &FlowEntry{Priority: priority, Match: match, Instructions: ins}
}

// String renders the entry in ovs-ofctl-like syntax.
func (e *FlowEntry) String() string {
	return fmt.Sprintf("priority=%d,%s actions=%s", e.Priority, e.Match, e.Instructions)
}

// Clone returns a deep copy of the entry (with zeroed counters).
func (e *FlowEntry) Clone() *FlowEntry {
	return &FlowEntry{
		Priority:     e.Priority,
		Match:        e.Match.Clone(),
		Instructions: e.Instructions.clone(),
		Cookie:       e.Cookie,
		IdleTimeout:  e.IdleTimeout,
		HardTimeout:  e.HardTimeout,
	}
}

// FlowTable is one stage of the pipeline: an ordered list of flow entries.
// The zero value is an empty table with ID 0.
//
// The match order (priority desc, insertion order within a priority) is
// built when a reader needs it: an add that would shift more than
// inPlaceShift pointers of the sorted slice is parked on a pending tail
// instead, and the first reader that depends on the order — Entries, Lookup,
// MatchFields, Clone, Fork, String, DeleteWhere, a replace, a delete of any
// entry but the newest pending add, the lazy index build — merges the
// pending adds back in.  A reader may therefore write.  FlowTable is not
// safe for concurrent use, reads included: every owner serializes all calls
// on its tables (internal/core under the datapath's writer mutex, ovs.Switch
// under its mutex, an Interpreter or a controller by owning its pipeline),
// and the datapaths that forward concurrently (internal/core, internal/ovs)
// read compiled snapshots or take that mutex.
type FlowTable struct {
	ID TableID
	// Name is an optional human-readable stage name ("per-CE NAT", ...).
	Name string

	// entries is sorted by (priority desc, seq asc).  It lacks the entries
	// of pending.
	entries []*FlowEntry
	// pending holds the adds not merged into entries yet, in seq order.
	pending []*FlowEntry
	nextSeq uint64
	// index maps (priority, match hash) to the live entry holding it, for
	// O(1) replace-on-add and delete, keeping large installs (Fig. 17)
	// linear.  The entry's position is never stored: position() finds it in
	// the sorted slice by binary search.  collided holds the further entries
	// whose key an entry with a different match already holds in index —
	// distinct matches whose 64-bit hashes agree, which the index tells
	// apart with Match.Equal.
	index    map[entryKey]*FlowEntry
	collided map[entryKey][]*FlowEntry
}

// inPlaceShift is the most pointers an add moves within the sorted slice;
// beyond it the add is parked for the next merge.  Below it a small table
// keeps the plain in-place path (no merge ever runs), while a route add on
// the 10k-route RIB, whose /24s sit above most of the table, costs O(1), and
// so does the delete that withdraws it again (BenchmarkRouteMods in
// internal/core).
const inPlaceShift = 32

// mergeShare bounds the parked work: once the pending adds exceed
// 1/mergeShare of the sorted slice, the add merges them, so a reader's merge
// stays proportional to the work it absorbs (BenchmarkRouteMods in
// internal/core alternates the add and delete of one route, which never
// reaches it).
const mergeShare = 8

// entryKey is an entry's index key: its priority and its match's hash.
type entryKey struct {
	priority int
	hash     uint64
}

// NewFlowTable returns an empty table with the given ID.
func NewFlowTable(id TableID) *FlowTable { return &FlowTable{ID: id} }

// Len returns the number of entries in the table.
func (t *FlowTable) Len() int { return len(t.entries) + len(t.pending) }

// Entries returns the table's entries in match order (decreasing priority,
// insertion order within a priority).  The returned slice must not be
// modified; the table's next mutation may rewrite it.
func (t *FlowTable) Entries() []*FlowEntry {
	t.merge()
	return t.entries
}

// matchHash is the hash the index keys matches by; tests swap in a weaker
// one to drive the collision path.
var matchHash = (*Match).hash

func keyOf(priority int, match *Match) entryKey {
	return entryKey{priority: priority, hash: matchHash(match)}
}

// find returns the entry with exactly this priority and match, whose key is
// key, building the index on first use.
func (t *FlowTable) find(key entryKey, match *Match) *FlowEntry {
	if t.index == nil {
		t.merge()
		t.index = make(map[entryKey]*FlowEntry, len(t.entries))
		for _, e := range t.entries {
			t.link(keyOf(e.Priority, e.Match), e)
		}
	}
	if e := t.index[key]; e == nil || e.Match.Equal(match) {
		return e
	}
	for _, e := range t.collided[key] {
		if e.Match.Equal(match) {
			return e
		}
	}
	return nil
}

// link indexes e, which no indexed entry equals, under its key.
func (t *FlowTable) link(key entryKey, e *FlowEntry) {
	if t.index[key] == nil {
		t.index[key] = e
		return
	}
	if t.collided == nil {
		t.collided = make(map[entryKey][]*FlowEntry)
	}
	t.collided[key] = append(t.collided[key], e)
}

// relink puts e where the index holds old, the entry e replaces.
func (t *FlowTable) relink(key entryKey, old, e *FlowEntry) {
	if t.index[key] == old {
		t.index[key] = e
		return
	}
	c := t.collided[key]
	c[slices.Index(c, old)] = e
}

// unlink drops e from the index; a collided entry under the same key takes
// its place.
func (t *FlowTable) unlink(key entryKey, e *FlowEntry) {
	c := t.collided[key]
	if t.index[key] == e {
		if len(c) == 0 {
			delete(t.index, key)
			return
		}
		t.index[key] = c[len(c)-1]
		c[len(c)-1] = nil
		c = c[:len(c)-1]
	} else {
		i := slices.Index(c, e)
		c = slices.Delete(c, i, i+1)
	}
	if len(c) == 0 {
		delete(t.collided, key)
	} else {
		t.collided[key] = c
	}
}

// before reports whether a orders ahead of b: higher priority, or the same
// priority and inserted earlier.
func before(a, b *FlowEntry) bool {
	return a.Priority > b.Priority || (a.Priority == b.Priority && a.seq < b.seq)
}

// position returns the position in the sorted slice of an entry held there
// (or, for one that is not, the position it belongs at): the first index
// ordered at or after (priority desc, seq asc).
func (t *FlowTable) position(priority int, seq uint64) int {
	return sort.Search(len(t.entries), func(i int) bool {
		o := t.entries[i]
		return o.Priority < priority || (o.Priority == priority && o.seq >= seq)
	})
}

// Add inserts a flow entry, keeping entries sorted by decreasing priority
// (insertion order within a priority).  If an entry with an identical match
// and priority already exists it is replaced (OpenFlow FlowMod ADD semantics)
// and the method reports false for "added new entry".
func (t *FlowTable) Add(e *FlowEntry) bool {
	key := keyOf(e.Priority, e.Match)
	old := t.find(key, e.Match)
	if old != nil {
		t.merge()
		t.relink(key, old, e)
		e.seq = old.seq
		t.entries[t.position(e.Priority, e.seq)] = e
		return false
	}
	t.link(key, e)
	e.seq = t.nextSeq
	t.nextSeq++
	// The new seq is the largest, so this lands after every entry with
	// priority >= e.Priority: equal-priority entries stay in insertion order.
	pos := t.position(e.Priority, e.seq)
	if len(t.entries)-pos > inPlaceShift {
		t.pending = append(t.pending, e)
		if len(t.pending) > len(t.entries)/mergeShare {
			t.merge()
		}
		return true
	}
	t.entries = slices.Insert(t.entries, pos, e)
	return true
}

// Entry returns the table's entry with exactly this priority and match — the
// entry a FlowMod ADD would replace rather than add — or nil.  It shares
// Add's lazy index, so capacity checks on large tables stay O(1).
func (t *FlowTable) Entry(priority int, match *Match) *FlowEntry {
	return t.find(keyOf(priority, match), match)
}

// AddFlow is a convenience wrapper building and adding an entry.
func (t *FlowTable) AddFlow(priority int, match *Match, ins Instructions) *FlowEntry {
	e := NewEntry(priority, match, ins)
	t.Add(e)
	return e
}

// Delete removes entries whose match equals the given match (and, when
// priority >= 0, whose priority equals it).  It returns the number removed.
// A priority-qualified delete names at most one entry and finds it through
// the index; only the any-priority form scans the table.  Withdrawing the
// newest pending add drops it from the tail; any other delete merges the
// pending adds first and removes the entry from the sorted slice.
func (t *FlowTable) Delete(match *Match, priority int) int {
	if priority < 0 {
		return t.DeleteWhere(func(e *FlowEntry) bool { return e.Match.Equal(match) })
	}
	key := keyOf(priority, match)
	e := t.find(key, match)
	if e == nil {
		return 0
	}
	t.unlink(key, e)
	if n := len(t.pending); n > 0 && t.pending[n-1] == e {
		t.pending[n-1] = nil
		t.pending = t.pending[:n-1]
		return 1
	}
	t.merge()
	pos := t.position(priority, e.seq)
	t.entries = slices.Delete(t.entries, pos, pos+1)
	return 1
}

// merge folds any pending adds into the sorted slice.
func (t *FlowTable) merge() {
	if len(t.pending) != 0 {
		t.fold()
	}
}

// fold merges in O(n + k log k): it sorts the pending adds into (priority
// desc, seq asc) order — they are in seq order already, so a stable sort on
// priority does it — and merges the two runs from the back, in place.
func (t *FlowTable) fold() {
	add := t.pending
	slices.SortStableFunc(add, func(a, b *FlowEntry) int { return cmp.Compare(b.Priority, a.Priority) })
	i, j := len(t.entries)-1, len(add)-1
	t.entries = slices.Grow(t.entries, len(add))[:len(t.entries)+len(add)]
	for w := len(t.entries) - 1; j >= 0; w-- {
		if i >= 0 && before(add[j], t.entries[i]) {
			t.entries[w] = t.entries[i]
			i--
		} else {
			t.entries[w] = add[j]
			j--
		}
	}
	clear(add)
	t.pending = add[:0]
}

// keep filters s in place down to the entries pred accepts, clearing the
// vacated tail.
func keep(s []*FlowEntry, pred func(*FlowEntry) bool) []*FlowEntry {
	kept := s[:0]
	for _, e := range s {
		if pred(e) {
			kept = append(kept, e)
		}
	}
	clear(s[len(kept):])
	return kept
}

// DeleteWhere removes all entries for which pred returns true and returns the
// number removed.
func (t *FlowTable) DeleteWhere(pred func(*FlowEntry) bool) int {
	t.merge()
	n := len(t.entries)
	t.entries = keep(t.entries, func(e *FlowEntry) bool {
		if !pred(e) {
			return true
		}
		if t.index != nil {
			t.unlink(keyOf(e.Priority, e.Match), e)
		}
		return false
	})
	return n - len(t.entries)
}

// Lookup performs priority-ordered classification of packet p in this table,
// returning the highest-priority matching entry or nil on a table miss.  If
// tracker is non-nil every field examined (including fields of higher-
// priority entries that failed to match) is reported to it.  The packet must
// already be parsed deep enough for the table's match fields.
func (t *FlowTable) Lookup(p *pkt.Packet, tracker FieldTracker) *FlowEntry {
	t.merge()
	for _, e := range t.entries {
		if e.Match.Matches(p, tracker) {
			return e
		}
	}
	return nil
}

// MatchFields returns the union of fields matched by any entry of the table.
func (t *FlowTable) MatchFields() FieldSet {
	var s FieldSet
	for _, e := range t.Entries() {
		s = s.Union(e.Match.Fields())
	}
	return s
}

// Clone returns a deep copy of the table (entries cloned, counters zeroed).
func (t *FlowTable) Clone() *FlowTable {
	c := NewFlowTable(t.ID)
	c.Name = t.Name
	for _, e := range t.Entries() {
		c.Add(e.Clone())
	}
	return c
}

// Fork returns a copy of the table that shares its entries: adds and deletes
// on the copy leave t as it was, and every shared entry keeps its counters
// and its identity.
func (t *FlowTable) Fork() *FlowTable {
	return &FlowTable{ID: t.ID, Name: t.Name, entries: slices.Clone(t.Entries()), nextSeq: t.nextSeq}
}

// String renders the table as one entry per line.
func (t *FlowTable) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "table=%d", t.ID)
	if t.Name != "" {
		fmt.Fprintf(&sb, " (%s)", t.Name)
	}
	sb.WriteByte('\n')
	for _, e := range t.Entries() {
		sb.WriteString("  ")
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

package core

import (
	"maps"
	"math"
	"slices"

	"eswitch/internal/exacthash"
	"eswitch/internal/lpm"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/tss"
)

// hashKey is the packed exact-match key of the compound-hash template.
type hashKey = exacthash.Key

// ---------------------------------------------------------------------------
// Direct code template
// ---------------------------------------------------------------------------

// directEntry is one flow entry compiled into a sequence of specialized
// matcher closures preceded by a protocol-bitmask check, mirroring the
// machine-code layout of §3.1.
type directEntry struct {
	proto    pkt.Proto
	matchers []matcherFunc
	out      *compiledEntry
}

// directCode is the direct-code flow-table template: rules are evaluated in
// priority order, each as straight-line specialized matchers.  Prerequisite:
// the table is small (at most Options.DirectCodeMaxEntries entries).
type directCode struct {
	entries    []directEntry
	maxEntries int
}

func newDirectCode(opts Options) *directCode {
	return &directCode{maxEntries: opts.DirectCodeMaxEntries}
}

func (d *directCode) Kind() TemplateKind { return TemplateDirectCode }
func (d *directCode) Len() int           { return len(d.entries) }

func (d *directCode) Lookup(p *pkt.Packet, st *TraceStep) *compiledEntry {
	for i := range d.entries {
		e := &d.entries[i]
		if !p.Headers.Has(e.proto) {
			continue
		}
		matched := true
		for _, match := range e.matchers {
			if !match(p) {
				matched = false
				break
			}
		}
		if matched {
			if st != nil {
				st.Examined = i + 1
			}
			return e.out
		}
	}
	if st != nil {
		st.Examined = len(d.entries)
	}
	return nil
}

// LookupBurst evaluates the burst through the straight-line matchers.  The
// direct-code template has no key material to stage (the keys live in the
// matcher closures), so the batch win is keeping the tiny entry sequence and
// its branch state hot across the burst.
func (d *directCode) LookupBurst(ps []*pkt.Packet, outs []*compiledEntry, _ *burstScratch) {
	for i, p := range ps {
		outs[i] = d.Lookup(p, nil)
	}
}

func (d *directCode) CanInsert(e *openflow.FlowEntry) bool {
	// The paper rebuilds the direct-code template unconditionally on
	// updates; inserting in place is still fine as long as the size
	// prerequisite holds, and the caller keeps priority order by
	// rebuilding, so only report capacity here.
	return len(d.entries) < d.maxEntries
}

func (d *directCode) Insert(e *openflow.FlowEntry, ce *compiledEntry) {
	proto, matchers := buildMatchers(e.Match)
	ne := directEntry{proto: proto, matchers: matchers, out: ce}
	// Keep entries ordered by decreasing priority (stable).
	pos := len(d.entries)
	for i := range d.entries {
		if d.entries[i].out.priority < e.Priority {
			pos = i
			break
		}
	}
	d.entries = append(d.entries, directEntry{})
	copy(d.entries[pos+1:], d.entries[pos:])
	d.entries[pos] = ne
}

// Replace swaps the compiled entry in place.  Only the compound hash's tail
// calls it: a direct-code table is always rebuilt (Mirror).
func (d *directCode) Replace(e *openflow.FlowEntry, ce *compiledEntry) bool {
	for i := range d.entries {
		if out := d.entries[i].out; out.priority == e.Priority && out.match.Equal(e.Match) {
			d.entries[i].out = ce
			return true
		}
	}
	return false
}

// Mirror returns nil: the direct-code template is always rebuilt on updates
// (as in the paper), so there is no shadow copy to maintain.
func (d *directCode) Mirror() tableDatapath { return nil }

func (d *directCode) Remove(match *openflow.Match, priority int) int {
	kept := d.entries[:0]
	removed := 0
	for _, e := range d.entries {
		if e.out.match.Equal(match) && (priority < 0 || e.out.priority == priority) {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	d.entries = kept
	return removed
}

// ---------------------------------------------------------------------------
// Value slots
// ---------------------------------------------------------------------------

// valueSlots is the entry store behind the index a template's lookup
// structure (the cuckoo table, DIR-24-8) resolves to.  A removed entry hands
// its slot back to the next insert, so add/delete churn neither grows the
// store nor keeps deleted entries reachable until the next full rebuild.
type valueSlots struct {
	values []*compiledEntry
	free   []uint32
	// shared marks the slots whose key a second entry of the declarative
	// table holds too, at another priority.  The lookup structure resolves a
	// key to one slot, which serves the upper entry; the lower one exists
	// only in the declarative table, so a template must not remove such a
	// slot (removable) and the delete rebuilds the table instead.
	shared map[uint32]struct{}
}

// put stores ce and returns its slot.
func (s *valueSlots) put(ce *compiledEntry) uint32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		s.values[idx] = ce
		return idx
	}
	s.values = append(s.values, ce)
	return uint32(len(s.values) - 1)
}

// release frees a slot the lookup structure no longer references.
func (s *valueSlots) release(idx uint32) {
	s.values[idx] = nil
	s.free = append(s.free, idx)
}

// share takes a second entry under the key slot idx already serves: the
// higher priority of the two stays in the slot.
func (s *valueSlots) share(idx uint32, ce *compiledEntry) {
	if s.values[idx].priority < ce.priority {
		s.values[idx] = ce
	}
	if s.shared == nil {
		s.shared = make(map[uint32]struct{})
	}
	s.shared[idx] = struct{}{}
}

// removable reports whether slot idx holds the only entry under its key, and
// that entry has the given priority (any when negative).
func (s *valueSlots) removable(idx uint32, priority int) bool {
	_, shared := s.shared[idx]
	return !shared && (priority < 0 || s.values[idx].priority == priority)
}

// swap puts ce in slot idx in place of the entry of its priority.  The lower
// entry under a shared key lives only in the declarative table, so replacing
// it leaves the slot as it is.
func (s *valueSlots) swap(idx uint32, ce *compiledEntry) bool {
	switch prio := s.values[idx].priority; {
	case prio == ce.priority:
		s.values[idx] = ce
		return true
	case prio > ce.priority:
		_, shared := s.shared[idx]
		return shared
	}
	return false
}

func (s *valueSlots) clone() valueSlots {
	return valueSlots{
		values: append([]*compiledEntry(nil), s.values...),
		free:   append([]uint32(nil), s.free...),
		shared: maps.Clone(s.shared),
	}
}

// ---------------------------------------------------------------------------
// Compound hash template
// ---------------------------------------------------------------------------

// hashTable is the compound-hash flow-table template: all entries match the
// same fields under the same ("global") masks, so classification is a single
// exact-match lookup on the key gathered from the words of the key layout the
// masks touch (keyGather, planned once per template).  The entries outside
// that keyed band — a catch-all, say — form a short direct-code tail, all of
// them below the band: a packet the probe misses, or one without the band's
// protocols, runs the tail.
type hashTable struct {
	gather     keyGather
	table      *exacthash.Table
	valueSlots // indexed by the table's values
	tail       directCode
	// prioLo is the lowest priority of the keyed entries inserted since the
	// table was built (removals do not raise it): the tail must stay below
	// it, or one hash lookup would not give priority order.
	prioLo int
}

func newHashTable(gather keyGather, sizeHint int, opts Options) *hashTable {
	return &hashTable{
		gather: gather,
		table:  exacthash.New(sizeHint),
		tail:   directCode{maxEntries: opts.DirectCodeMaxEntries},
		prioLo: math.MaxInt,
	}
}

func (h *hashTable) Kind() TemplateKind { return TemplateHash }

func (h *hashTable) Len() int { return h.table.Len() + h.tail.Len() }

// Lookup records the probe alone in st: the tail is part of the hash step.
func (h *hashTable) Lookup(p *pkt.Packet, st *TraceStep) *compiledEntry {
	if !p.Headers.Has(h.gather.proto) {
		return h.tail.Lookup(p, nil)
	}
	key := h.gather.packet(p)
	if st != nil {
		st.Examined, st.Offset = 1, key.W0^key.W1<<7^key.W2<<13^key.W3<<23
	}
	idx, ok := h.table.Lookup(key)
	if !ok {
		return h.tail.Lookup(p, nil)
	}
	return h.values[idx]
}

// burstStageMin is the group size below which the batched templates fall
// back to the fused per-packet lookup: staging key material for a couple of
// packets costs more than the overlap it buys.
const burstStageMin = 8

// LookupBurst classifies the burst in two software-pipelined passes: all
// gathered keys are computed first, while the freshly parsed header material is
// still hot, and then the exact-match table is probed for the whole burst so
// the dependent bucket loads issue back to back.
func (h *hashTable) LookupBurst(ps []*pkt.Packet, outs []*compiledEntry, sc *burstScratch) {
	if len(ps) < burstStageMin {
		for i, p := range ps {
			outs[i] = h.Lookup(p, nil)
		}
		return
	}
	// Pass 1: gather and hash the keys of the whole burst while the freshly
	// parsed header material is hot (the key is hashed straight out of
	// registers); protocol misses run the tail immediately and stay out of
	// the probe batch.
	nv := 0
	for i, p := range ps {
		if !p.Headers.Has(h.gather.proto) {
			outs[i] = h.tail.Lookup(p, nil)
			continue
		}
		key := h.gather.packet(p)
		sc.keys[nv] = key
		sc.hash.H1[nv], sc.hash.H2[nv] = h.table.Hash(key)
		sc.gidx[nv] = int32(i)
		nv++
	}
	ident := nv == len(ps) // no protocol misses: group index is the identity
	// Pass 2: probe the collision-free hash back to back, so the bucket
	// loads of the burst overlap.
	for j := 0; j < nv; j++ {
		i := j
		if !ident {
			i = int(sc.gidx[j])
		}
		idx, ok := h.table.LookupPrehashed(sc.keys[j], sc.hash.H1[j], sc.hash.H2[j])
		if !ok {
			outs[i] = h.tail.Lookup(ps[i], nil)
			continue
		}
		outs[i] = h.values[idx]
	}
}

// Mirror deep-copies the mutable lookup state (the cuckoo table, the value
// slice, the tail's entries); the gather and the compiled entries are shared.
func (h *hashTable) Mirror() tableDatapath {
	return &hashTable{
		gather:     h.gather,
		table:      h.table.Clone(),
		valueSlots: h.valueSlots.clone(),
		tail:       directCode{entries: slices.Clone(h.tail.entries), maxEntries: h.tail.maxEntries},
		prioLo:     h.prioLo,
	}
}

// CanInsert accepts a keyed entry under the template's masks above the tail,
// or any other entry below every keyed entry while the tail has room: what
// the analysis pass asks of the whole table.
func (h *hashTable) CanInsert(e *openflow.FlowEntry) bool {
	if !h.gather.compatible(e.Match) {
		return e.Priority < h.prioLo && h.tail.CanInsert(e)
	}
	return h.tail.Len() == 0 || e.Priority > h.tail.entries[0].out.priority
}

func (h *hashTable) Insert(e *openflow.FlowEntry, ce *compiledEntry) {
	if !h.gather.compatible(e.Match) {
		h.tail.Insert(e, ce)
		return
	}
	h.prioLo = min(h.prioLo, e.Priority)
	key := h.gather.entry(e.Match)
	if idx, ok := h.table.Lookup(key); ok {
		h.share(idx, ce)
		return
	}
	h.table.Insert(key, h.put(ce))
}

func (h *hashTable) Remove(match *openflow.Match, priority int) int {
	if !h.gather.compatible(match) {
		return h.tail.Remove(match, priority)
	}
	key := h.gather.entry(match)
	idx, ok := h.table.Lookup(key)
	if !ok || !h.removable(idx, priority) {
		return 0
	}
	h.table.Delete(key)
	h.release(idx)
	return 1
}

func (h *hashTable) Replace(e *openflow.FlowEntry, ce *compiledEntry) bool {
	if !h.gather.compatible(e.Match) {
		return h.tail.Replace(e, ce)
	}
	idx, ok := h.table.Lookup(h.gather.entry(e.Match))
	return ok && h.swap(idx, ce)
}

// ---------------------------------------------------------------------------
// LPM template
// ---------------------------------------------------------------------------

// lpmTable is the LPM flow-table template: a single 32-bit field matched with
// prefix masks whose priorities are consistent with prefix lengths,
// implemented over the DIR-24-8 structure.  An optional catch-all entry
// provides the default route.
type lpmTable struct {
	field      openflow.Field
	proto      pkt.Proto
	table      *lpm.Table
	valueSlots // indexed by the table's values
	// def is the default route.  There is at most one: the analysis admits
	// one catch-all, and CanInsert refuses a second.
	def *compiledEntry
	// prioLo[n] and prioHi[n] bound the priorities of the /n prefixes
	// inserted since the table was built, the default route counting as the
	// /0 (removals do not narrow the bounds; a rebuild starts them over).
	// CanInsert holds a new entry against them instead of against every
	// installed prefix.
	prioLo, prioHi [33]int
}

func newLPMTable(field openflow.Field) *lpmTable {
	l := &lpmTable{
		field: field,
		proto: field.Prerequisite(),
		table: lpm.New(),
	}
	for n := range l.prioLo {
		l.prioLo[n], l.prioHi[n] = math.MaxInt, math.MinInt
	}
	return l
}

func (l *lpmTable) Kind() TemplateKind { return TemplateLPM }

func (l *lpmTable) Len() int {
	n := l.table.Len()
	if l.def != nil {
		n++
	}
	return n
}

func (l *lpmTable) Lookup(p *pkt.Packet, st *TraceStep) *compiledEntry {
	if !p.Headers.Has(l.proto) {
		return l.def
	}
	addr := uint32(openflow.Extract(p, l.field))
	value, depth, ok := l.table.Resolve(addr, l.table.Probe1(addr))
	if st != nil {
		st.Examined, st.Offset = depth, uint64(addr)
	}
	if !ok {
		return l.def
	}
	return l.values[value]
}

// LookupBurst stages the addresses of the whole burst and hands them to the
// DIR-24-8 structure's batched lookup, which probes the first level for every
// packet before following any second-level group.
func (l *lpmTable) LookupBurst(ps []*pkt.Packet, outs []*compiledEntry, sc *burstScratch) {
	if len(ps) < burstStageMin {
		for i, p := range ps {
			outs[i] = l.Lookup(p, nil)
		}
		return
	}
	// Pass 1: extract the addresses and probe the first level for the
	// whole burst back to back, so the independent tbl24 loads overlap.
	nv := 0
	for i, p := range ps {
		if !p.Headers.Has(l.proto) {
			outs[i] = l.def
			continue
		}
		addr := uint32(openflow.Extract(p, l.field))
		sc.addrs[nv] = addr
		sc.values[nv] = l.table.Probe1(addr)
		sc.gidx[nv] = int32(i)
		nv++
	}
	ident := nv == len(ps) // no protocol misses: group index is the identity
	// Pass 2: resolve each first-level entry, following tbl8 groups.
	for j := 0; j < nv; j++ {
		i := j
		if !ident {
			i = int(sc.gidx[j])
		}
		value, _, ok := l.table.Resolve(sc.addrs[j], sc.values[j])
		if !ok {
			outs[i] = l.def
			continue
		}
		outs[i] = l.values[value]
	}
}

// Mirror deep-copies the DIR-24-8 structure and the value slice.  The copy
// is expensive (the first level alone is 2^24 four-byte entries, 64 MB, each
// carrying its prefix depth, so no depth array is copied beside it; the tbl8
// group pool is one more flat slice), but it is paid only on the first
// incremental update of a table: afterwards the update path ping-pongs
// between the two copies, replaying the handful of pending operations onto
// the reclaimed one instead of copying again (update.go).
func (l *lpmTable) Mirror() tableDatapath {
	return &lpmTable{
		field:      l.field,
		proto:      l.proto,
		table:      l.table.Clone(),
		valueSlots: l.valueSlots.clone(),
		def:        l.def,
		prioLo:     l.prioLo,
		prioHi:     l.prioHi,
	}
}

// CanInsert accepts a prefix of the template's field, or a first default
// route, whose priority keeps longest-prefix order equal to priority order:
// above every shorter prefix, below every longer one.  That is stricter than
// the analysis pass, which compares overlapping prefixes only, but costs one
// pass over the prefix lengths instead of one over the table; an entry it
// refuses goes through the rebuild, whose analysis decides the template.
func (l *lpmTable) CanInsert(e *openflow.FlowEntry) bool {
	plen := 0
	if e.Match.IsEmpty() {
		if l.def != nil {
			return false // two defaults: deleting one would lose the other
		}
	} else {
		fields := e.Match.Fields().Fields()
		if len(fields) != 1 || fields[0] != l.field {
			return false
		}
		var ok bool
		if plen, ok = e.Match.IsPrefix(l.field); !ok {
			return false
		}
	}
	for n := range l.prioLo {
		if (n < plen && l.prioHi[n] >= e.Priority) || (n > plen && l.prioLo[n] <= e.Priority) {
			return false
		}
	}
	return true
}

func (l *lpmTable) Insert(e *openflow.FlowEntry, ce *compiledEntry) {
	plen, _ := e.Match.IsPrefix(l.field) // 0 for the default route
	l.prioLo[plen] = min(l.prioLo[plen], e.Priority)
	l.prioHi[plen] = max(l.prioHi[plen], e.Priority)
	if e.Match.IsEmpty() {
		l.def = ce
		return
	}
	value, _, _ := e.Match.Get(l.field)
	if idx, ok := l.table.Get(uint32(value), plen); ok {
		l.share(idx, ce)
		return
	}
	l.table.Insert(uint32(value), plen, l.put(ce))
}

// prefix returns the prefix a non-empty match selects on the template's
// field, and whether it is one.
func (l *lpmTable) prefix(match *openflow.Match) (addr uint32, plen int, ok bool) {
	fields := match.Fields().Fields()
	if len(fields) != 1 || fields[0] != l.field {
		return 0, 0, false
	}
	if plen, ok = match.IsPrefix(l.field); !ok {
		return 0, 0, false
	}
	value, _, _ := match.Get(l.field)
	return uint32(value), plen, true
}

func (l *lpmTable) Remove(match *openflow.Match, priority int) int {
	if match.IsEmpty() {
		if l.def != nil && (priority < 0 || l.def.priority == priority) {
			l.def = nil
			return 1
		}
		return 0
	}
	addr, plen, ok := l.prefix(match)
	if !ok {
		return 0
	}
	idx, ok := l.table.Get(addr, plen)
	if !ok || !l.removable(idx, priority) {
		return 0
	}
	l.table.Delete(addr, plen)
	l.release(idx)
	return 1
}

func (l *lpmTable) Replace(e *openflow.FlowEntry, ce *compiledEntry) bool {
	if e.Match.IsEmpty() {
		if l.def == nil || l.def.priority != e.Priority {
			return false
		}
		l.def = ce
		return true
	}
	addr, plen, ok := l.prefix(e.Match)
	if !ok {
		return false
	}
	idx, ok := l.table.Get(addr, plen)
	return ok && l.swap(idx, ce)
}

// ---------------------------------------------------------------------------
// Linked list (tuple space search) template
// ---------------------------------------------------------------------------

// listTable is the linked-list flow-table template, the universal last-resort
// fallback of Fig. 4: tuple space search with one shared matcher function per
// mask combination.
type listTable struct {
	classifier *tss.Classifier
	count      int
}

func newListTable() *listTable {
	return &listTable{classifier: tss.New()}
}

func (l *listTable) Kind() TemplateKind { return TemplateLinkedList }
func (l *listTable) Len() int           { return l.count }

func (l *listTable) Lookup(p *pkt.Packet, st *TraceStep) *compiledEntry {
	res := l.classifier.Lookup(p, nil)
	if st != nil {
		st.Examined, st.Offset = res.GroupsProbed, uint64(p.Headers.IPDst)
	}
	if res.Entry == nil {
		return nil
	}
	return res.Entry.Aux.(*compiledEntry)
}

// LookupBurst runs tuple space search per packet: the last-resort template
// has no key staging to amortize.
func (l *listTable) LookupBurst(ps []*pkt.Packet, outs []*compiledEntry, _ *burstScratch) {
	for i, p := range ps {
		outs[i] = l.Lookup(p, nil)
	}
}

// Mirror deep-copies the tuple-space classifier (groups and entry buckets;
// the entries themselves are immutable once inserted and are shared).
func (l *listTable) Mirror() tableDatapath {
	return &listTable{
		classifier: l.classifier.Clone(),
		count:      l.count,
	}
}

func (l *listTable) CanInsert(e *openflow.FlowEntry) bool { return true }

func (l *listTable) Insert(e *openflow.FlowEntry, ce *compiledEntry) {
	l.classifier.Insert(&tss.Entry{Priority: e.Priority, Match: e.Match, Aux: ce})
	l.count = l.classifier.Len()
}

func (l *listTable) Remove(match *openflow.Match, priority int) int {
	removed := 0
	for l.classifier.Delete(match, priority) {
		removed++
		if priority >= 0 {
			break
		}
	}
	l.count = l.classifier.Len()
	return removed
}

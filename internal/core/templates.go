package core

import (
	"math"
	"slices"
	"sync/atomic"

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

func (d *directCode) Insert(e *openflow.FlowEntry, ce *compiledEntry) bool {
	proto, matchers := buildMatchers(e.Match)
	ne := directEntry{proto: proto, matchers: matchers, out: ce}
	// Keep entries ordered by decreasing priority (stable).
	pos := len(d.entries)
	for i := range d.entries {
		if d.entries[i].out.entry.Priority < e.Priority {
			pos = i
			break
		}
	}
	d.entries = append(d.entries, directEntry{})
	copy(d.entries[pos+1:], d.entries[pos:])
	d.entries[pos] = ne
	return true
}

// Replace swaps the compiled entry in place.  Only the compound hash's tail
// calls it, on a copy: a direct-code table is always rebuilt.
func (d *directCode) Replace(e *openflow.FlowEntry, ce *compiledEntry) bool {
	for i := range d.entries {
		if out := d.entries[i].out; out.entry.Priority == e.Priority && out.entry.Match.Equal(e.Match) {
			d.entries[i].out = ce
			return true
		}
	}
	return false
}

func (d *directCode) Remove(match *openflow.Match, priority int) int {
	kept := d.entries[:0]
	removed := 0
	for _, e := range d.entries {
		if e.out.entry.Match.Equal(match) && (priority < 0 || e.out.entry.Priority == priority) {
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
// its slot back to a later insert, so add/delete churn neither grows the
// store nor keeps deleted entries reachable until the next full rebuild.
//
// Readers load the store, then the entry, atomically, and only after the
// word or tag that named the slot: a slot is filled before any word names
// it, and a grown store is published before its new slots are named.  A
// released slot is retired, not freed: a reader that loaded the word before
// the delete may still load the entry, so it is reused only after a grace
// period (reclaim).
type valueSlots struct {
	store   atomic.Pointer[[]atomic.Pointer[compiledEntry]]
	used    int      // slots handed out: the store's length in use
	free    []uint32 // slots no reader can reach
	retired []uint32 // slots released since the last grace period
	// shared marks the slots whose key a second entry of the declarative
	// table holds too, at another priority.  The lookup structure resolves a
	// key to one slot, which serves the upper entry; the lower one exists
	// only in the declarative table, so a template must not remove such a
	// slot (removable) and the delete rebuilds the table instead.
	shared map[uint32]struct{}
	// quiesce waits for a grace period; set when the table is published.
	quiesce func()
}

// slot returns slot idx of the store loaded now.
func (s *valueSlots) slot(idx uint32) *atomic.Pointer[compiledEntry] { return &(*s.store.Load())[idx] }

// entry returns the entry in slot idx.
func (s *valueSlots) entry(idx uint32) *compiledEntry { return s.slot(idx).Load() }

// put stores ce and returns its slot: a free one, a retired one once a grace
// period has passed, or a new one, doubling the store when it is full.
func (s *valueSlots) put(ce *compiledEntry) uint32 {
	if len(s.free) == 0 && len(s.retired) > 0 {
		s.reclaim()
	}
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		s.slot(idx).Store(ce)
		return idx
	}
	if p := s.store.Load(); p == nil || s.used == len(*p) {
		grown := make([]atomic.Pointer[compiledEntry], max(8, 2*s.used))
		for i := range s.used {
			grown[i].Store((*p)[i].Load())
		}
		s.store.Store(&grown)
	}
	s.used++
	s.slot(uint32(s.used - 1)).Store(ce)
	return uint32(s.used - 1)
}

// release retires a slot the lookup structure no longer references.
func (s *valueSlots) release(idx uint32) { s.retired = append(s.retired, idx) }

// reclaim waits for a grace period and frees the retired slots.
func (s *valueSlots) reclaim() {
	s.quiesce()
	for _, idx := range s.retired {
		s.slot(idx).Store(nil)
	}
	s.free = append(s.free, s.retired...)
	s.retired = s.retired[:0]
}

// share takes a second entry under the key slot idx already serves: the
// higher priority of the two stays in the slot.
func (s *valueSlots) share(idx uint32, ce *compiledEntry) {
	if s.entry(idx).entry.Priority < ce.entry.Priority {
		s.slot(idx).Store(ce)
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
	return !shared && (priority < 0 || s.entry(idx).entry.Priority == priority)
}

// swap puts ce in slot idx in place of the entry of its priority.  The lower
// entry under a shared key lives only in the declarative table, so replacing
// it leaves the slot as it is.
func (s *valueSlots) swap(idx uint32, ce *compiledEntry) bool {
	switch prio := s.entry(idx).entry.Priority; {
	case prio == ce.entry.Priority:
		s.slot(idx).Store(ce)
		return true
	case prio > ce.entry.Priority:
		_, shared := s.shared[idx]
		return shared
	}
	return false
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
	// tail is copied on write: a reader may be walking the one it loaded.
	tail atomic.Pointer[directCode]
	// prioLo is the lowest priority of the keyed entries inserted since the
	// table was built (removals do not raise it): the tail must stay below
	// it, or one hash lookup would not give priority order.
	prioLo int
}

func newHashTable(gather keyGather, sizeHint int, opts Options) *hashTable {
	h := &hashTable{
		gather: gather,
		table:  exacthash.New(sizeHint),
		prioLo: math.MaxInt,
	}
	h.tail.Store(&directCode{maxEntries: opts.DirectCodeMaxEntries})
	return h
}

func (h *hashTable) Kind() TemplateKind { return TemplateHash }

func (h *hashTable) Len() int { return h.table.Len() + h.tail.Load().Len() }

func (h *hashTable) publish(quiesce func()) {
	h.table.Publish(quiesce)
	h.quiesce = quiesce
}

// Lookup records the probe alone in st: the tail is part of the hash step.
func (h *hashTable) Lookup(p *pkt.Packet, st *TraceStep) *compiledEntry {
	if !p.Headers.Has(h.gather.proto) {
		return h.tail.Load().Lookup(p, nil)
	}
	key := h.gather.packet(p)
	if st != nil {
		st.Examined, st.Offset = 1, key.W0^key.W1<<7^key.W2<<13^key.W3<<23
	}
	idx, ok := h.table.Lookup(key)
	if !ok {
		return h.tail.Load().Lookup(p, nil)
	}
	return h.entry(idx)
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
			outs[i] = h.tail.Load().Lookup(p, nil)
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
			outs[i] = h.tail.Load().Lookup(ps[i], nil)
			continue
		}
		outs[i] = h.entry(idx) // loaded after the tag that named idx
	}
}

// CanInsert accepts a keyed entry under the template's masks above the tail,
// or any other entry below every keyed entry while the tail has room: what
// the analysis pass asks of the whole table.
func (h *hashTable) CanInsert(e *openflow.FlowEntry) bool {
	tail := h.tail.Load()
	if !h.gather.compatible(e.Match) {
		return e.Priority < h.prioLo && tail.Len() < tail.maxEntries
	}
	return tail.Len() == 0 || e.Priority > tail.entries[0].out.entry.Priority
}

// Insert reports false when the cuckoo table, published, has no room for
// the key in its two buckets; the caller then rebuilds the template.
func (h *hashTable) Insert(e *openflow.FlowEntry, ce *compiledEntry) bool {
	if !h.gather.compatible(e.Match) {
		return h.editTail(func(t *directCode) bool { return t.Insert(e, ce) })
	}
	h.prioLo = min(h.prioLo, e.Priority)
	key := h.gather.entry(e.Match)
	if idx, ok := h.table.Lookup(key); ok {
		h.share(idx, ce)
		return true
	}
	idx := h.put(ce)
	if !h.table.Insert(key, idx) {
		h.release(idx)
		return false
	}
	return true
}

func (h *hashTable) Remove(match *openflow.Match, priority int) int {
	if !h.gather.compatible(match) {
		n := 0
		h.editTail(func(t *directCode) bool { n = t.Remove(match, priority); return n > 0 })
		return n
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
		return h.editTail(func(t *directCode) bool { return t.Replace(e, ce) })
	}
	idx, ok := h.table.Lookup(h.gather.entry(e.Match))
	return ok && h.swap(idx, ce)
}

// editTail applies edit to a copy of the tail and publishes the copy when
// edit reports a change.
func (h *hashTable) editTail(edit func(*directCode) bool) bool {
	t := *h.tail.Load()
	t.entries = slices.Clone(t.entries)
	if !edit(&t) {
		return false
	}
	h.tail.Store(&t)
	return true
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
	def atomic.Pointer[compiledEntry]
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
	if l.def.Load() != nil {
		n++
	}
	return n
}

func (l *lpmTable) publish(quiesce func()) {
	l.table.Publish(quiesce)
	l.quiesce = quiesce
}

func (l *lpmTable) Lookup(p *pkt.Packet, st *TraceStep) *compiledEntry {
	if !p.Headers.Has(l.proto) {
		return l.def.Load()
	}
	addr := uint32(openflow.Extract(p, l.field))
	value, depth, ok := l.table.Resolve(addr, l.table.Probe1(addr))
	if st != nil {
		st.Examined, st.Offset = depth, uint64(addr)
	}
	if !ok {
		return l.def.Load()
	}
	return l.entry(value)
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
			outs[i] = l.def.Load()
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
			outs[i] = l.def.Load()
			continue
		}
		outs[i] = l.entry(value) // loaded after the word that named value
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
		if l.def.Load() != nil {
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

func (l *lpmTable) Insert(e *openflow.FlowEntry, ce *compiledEntry) bool {
	plen, _ := e.Match.IsPrefix(l.field) // 0 for the default route
	l.prioLo[plen] = min(l.prioLo[plen], e.Priority)
	l.prioHi[plen] = max(l.prioHi[plen], e.Priority)
	if e.Match.IsEmpty() {
		l.def.Store(ce)
		return true
	}
	value, _, _ := e.Match.Get(l.field)
	if idx, ok := l.table.Get(uint32(value), plen); ok {
		l.share(idx, ce)
		return true
	}
	l.table.Insert(uint32(value), plen, l.put(ce))
	return true
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
		if def := l.def.Load(); def != nil && (priority < 0 || def.entry.Priority == priority) {
			l.def.Store(nil)
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
		if def := l.def.Load(); def == nil || def.entry.Priority != e.Priority {
			return false
		}
		l.def.Store(ce)
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
}

func newListTable() *listTable {
	return &listTable{classifier: tss.New()}
}

func (l *listTable) Kind() TemplateKind { return TemplateLinkedList }
func (l *listTable) Len() int           { return l.classifier.Len() }

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

func (l *listTable) Insert(e *openflow.FlowEntry, ce *compiledEntry) bool {
	l.classifier.Insert(&tss.Entry{Priority: e.Priority, Match: e.Match, Aux: ce})
	return true
}

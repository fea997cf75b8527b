// Package tss implements tuple space search packet classification
// (Srinivasan et al., SIGCOMM 1999): flow entries are grouped by the exact
// combination of field masks they use, each group is an exact-match hash over
// the masked key, and a lookup probes every group, keeping the highest-
// priority hit.
//
// Two consumers share this classifier: the ESWITCH linked-list flow-table
// template (the last-resort fallback of Fig. 4) and the megaflow cache of the
// OVS baseline (§2.2), which uses it without priorities over disjoint
// entries.  The classifier implements OVS's tuple-priority-sorting
// optimization: groups are kept sorted by their maximum priority so a search
// can stop as soon as the current best hit outranks every remaining group.
//
// Overlapping entries of equal priority resolve as in openflow.FlowTable: the
// earliest inserted wins, and a replacement keeps the position of the entry it
// replaces.
package tss

import (
	"fmt"
	"sort"
	"strings"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// Entry is one classifier entry.
type Entry struct {
	// Priority orders entries; higher wins.  The megaflow cache uses a
	// single priority because its entries are disjoint.
	Priority int
	// Match is the wildcard match; its mask set determines the group.
	Match *openflow.Match
	// Value is an opaque handle (an action-set or megaflow identifier).
	Value uint32
	// Aux optionally carries a consumer-defined payload.
	Aux any
	// seq is the entry's insertion order, the tie-break among overlapping
	// entries of equal priority (lower wins).
	seq uint64
}

type maskSignature string

// group is one tuple: all entries sharing the same per-field mask set.
type group struct {
	sig    maskSignature
	fields []openflow.Field
	masks  []uint64
	// entries maps the packed masked key to the entries with that key
	// (multiple only when priorities differ).
	entries map[string][]*Entry
	maxPrio int
	// firstSeq is the lowest seq among the entries at maxPrio: a hit of
	// priority maxPrio inserted before it outranks the whole group.
	firstSeq uint64
}

// Classifier is a tuple space search classifier.  The zero value is usable.
type Classifier struct {
	groups  []*group
	bysig   map[maskSignature]*group
	count   int
	nextSeq uint64
	// disjoint marks a classifier whose entries never overlap, so a lookup
	// stops at its first hit (NewDisjoint).
	disjoint bool
}

// New returns an empty classifier.
func New() *Classifier {
	return &Classifier{bysig: make(map[maskSignature]*group)}
}

// NewDisjoint returns an empty classifier for entries that never overlap, as
// the megaflow cache's do by construction: a packet matches at most one
// entry, so a lookup stops at the first hit, as OVS's datapath classifier
// does.
func NewDisjoint() *Classifier {
	c := New()
	c.disjoint = true
	return c
}

// Len returns the number of entries.
func (c *Classifier) Len() int { return c.count }

func signatureOf(m *openflow.Match) (maskSignature, []openflow.Field, []uint64) {
	fields := m.Fields().Fields()
	masks := make([]uint64, len(fields))
	var sb strings.Builder
	for i, f := range fields {
		_, mask, _ := m.Get(f)
		masks[i] = mask
		sb.WriteByte(byte(f))
		for shift := 0; shift < 64; shift += 8 {
			sb.WriteByte(byte(mask >> shift))
		}
	}
	return maskSignature(sb.String()), fields, masks
}

// keyOfMatch packs the masked match values into the group key.
func keyOfMatch(g *group, m *openflow.Match) string {
	var sb strings.Builder
	for i, f := range g.fields {
		v, _, _ := m.Get(f)
		v &= g.masks[i]
		for shift := 0; shift < 64; shift += 8 {
			sb.WriteByte(byte(v >> shift))
		}
	}
	return sb.String()
}

// keyOfPacket packs the masked packet field values into the group key.
func keyOfPacket(g *group, p *pkt.Packet, buf []byte) string {
	buf = buf[:0]
	for i, f := range g.fields {
		v := openflow.Extract(p, f) & g.masks[i]
		for shift := 0; shift < 64; shift += 8 {
			buf = append(buf, byte(v>>shift))
		}
	}
	return string(buf)
}

// Insert adds an entry.  An existing entry with an equal match and priority
// is replaced, and the replacement takes over its insertion order.
func (c *Classifier) Insert(e *Entry) {
	if c.bysig == nil {
		c.bysig = make(map[maskSignature]*group)
	}
	sig, fields, masks := signatureOf(e.Match)
	g, ok := c.bysig[sig]
	if !ok {
		g = &group{sig: sig, fields: fields, masks: masks, entries: make(map[string][]*Entry), maxPrio: e.Priority, firstSeq: c.nextSeq}
		c.bysig[sig] = g
		c.groups = append(c.groups, g)
	}
	key := keyOfMatch(g, e.Match)
	list := g.entries[key]
	for i, old := range list {
		if old.Priority == e.Priority && old.Match.Equal(e.Match) {
			e.seq = old.seq
			list[i] = e
			c.resort()
			return
		}
	}
	e.seq = c.nextSeq
	c.nextSeq++
	g.entries[key] = append(list, e)
	if e.Priority > g.maxPrio {
		g.maxPrio, g.firstSeq = e.Priority, e.seq
	}
	c.count++
	c.resort()
}

// DeleteWhere removes every entry for which pred returns true, returning the
// number removed.  The OVS baseline uses it to invalidate the megaflow cache.
func (c *Classifier) DeleteWhere(pred func(*Entry) bool) int {
	removed := 0
	for _, g := range append([]*group(nil), c.groups...) {
		for key, list := range g.entries {
			kept := list[:0]
			for _, e := range list {
				if pred(e) {
					removed++
					continue
				}
				kept = append(kept, e)
			}
			if len(kept) == 0 {
				delete(g.entries, key)
			} else {
				g.entries[key] = kept
			}
		}
		if len(g.entries) == 0 {
			c.removeGroup(g)
		} else {
			g.recomputeMaxPrio()
		}
	}
	c.count -= removed
	c.resort()
	return removed
}

// Clear removes every entry.
func (c *Classifier) Clear() {
	c.groups = nil
	c.bysig = make(map[maskSignature]*group)
	c.count = 0
}

func (c *Classifier) removeGroup(g *group) {
	delete(c.bysig, g.sig)
	for i, other := range c.groups {
		if other == g {
			c.groups = append(c.groups[:i], c.groups[i+1:]...)
			return
		}
	}
}

func (g *group) recomputeMaxPrio() {
	g.maxPrio = 0
	first := true
	for _, list := range g.entries {
		for _, e := range list {
			if first || e.Priority > g.maxPrio || (e.Priority == g.maxPrio && e.seq < g.firstSeq) {
				g.maxPrio, g.firstSeq = e.Priority, e.seq
				first = false
			}
		}
	}
}

// resort keeps groups ordered by decreasing maximum priority (tuple priority
// sorting), allowing Lookup to stop early.
func (c *Classifier) resort() {
	sort.SliceStable(c.groups, func(i, j int) bool { return c.groups[i].maxPrio > c.groups[j].maxPrio })
}

// LookupResult carries the winning entry plus the number of tuples (groups)
// probed, which the cycle cost model charges per lookup.
type LookupResult struct {
	Entry         *Entry
	GroupsProbed  int
	EntriesTested int
}

// Lookup classifies the packet, returning the highest-priority matching
// entry, the earliest inserted among equals (nil if none).  A group whose
// entries cannot outrank the best hit so far is not probed: one of lower
// maximum priority ends the search, and so, on a disjoint classifier, does
// any hit.  A non-nil acc — the OVS slow path's megaflow mask —
// observes every probed group's fields under the group's masks, and their
// protocol prerequisites: proving (or disproving) that those are present
// reads the protocol-identifying header fields.  Forwarding lookups pass nil.
func (c *Classifier) Lookup(p *pkt.Packet, acc *openflow.MaskAccumulator) LookupResult {
	var best *Entry
	var res LookupResult
	var keyBuf [8 * 8]byte
	for _, g := range c.groups {
		if best != nil {
			if c.disjoint || best.Priority > g.maxPrio {
				break // tuple priority sorting early exit
			}
			if best.Priority == g.maxPrio && best.seq < g.firstSeq {
				continue // best was inserted before every tie in g
			}
		}
		res.GroupsProbed++
		if acc != nil {
			var proto pkt.Proto
			for i, f := range g.fields {
				acc.Observe(p, f, g.masks[i])
				proto |= f.Prerequisite()
			}
			acc.ObservePrereq(p, proto)
		}
		key := keyOfPacket(g, p, keyBuf[:])
		for _, e := range g.entries[key] {
			res.EntriesTested++
			// The group key only covers masked bits; verify the full
			// match to honour prerequisites.
			if e.Match.Matches(p, nil) {
				if best == nil || e.Priority > best.Priority || (e.Priority == best.Priority && e.seq < best.seq) {
					best = e
				}
			}
		}
	}
	res.Entry = best
	return res
}

// Entries returns all entries (unspecified order).
func (c *Classifier) Entries() []*Entry {
	out := make([]*Entry, 0, c.count)
	for _, g := range c.groups {
		for _, list := range g.entries {
			out = append(out, list...)
		}
	}
	return out
}

// String summarizes the classifier.
func (c *Classifier) String() string {
	return fmt.Sprintf("tss{entries=%d groups=%d}", c.count, len(c.groups))
}

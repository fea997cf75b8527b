package core

import (
	"math"
	"math/bits"

	"eswitch/internal/openflow"
)

// analysis is the result of the flow-table analysis pass for one table
// (§3.2): the selected template and the template parameters.
type analysis struct {
	kind     TemplateKind
	gather   keyGather      // hash template parameter
	lpmField openflow.Field // LPM template parameter
}

// analyzeTable selects the most efficient template whose prerequisite the
// table satisfies, in the fallback order of Fig. 4: direct code for tiny
// tables, then compound hash with at most one catch-all, then LPM, then
// compound hash with a direct-code tail, then linked list.  The tail comes
// after LPM so that only tables the linked list would take change template.
func analyzeTable(t *openflow.FlowTable, opts Options) analysis {
	entries := t.Entries()
	if len(entries) <= opts.DirectCodeMaxEntries {
		return analysis{kind: TemplateDirectCode}
	}
	gather, tail, hashOK := hashPrerequisite(entries)
	if hashOK && (len(tail) == 0 || len(tail) == 1 && tail[0].Match.IsEmpty()) {
		return analysis{kind: TemplateHash, gather: gather}
	}
	if field, ok := lpmPrerequisite(entries); ok {
		return analysis{kind: TemplateLPM, lpmField: field}
	}
	if hashOK && len(tail) <= opts.DirectCodeMaxEntries {
		return analysis{kind: TemplateHash, gather: gather}
	}
	return analysis{kind: TemplateLinkedList}
}

// hashPrerequisite checks the compound-hash prerequisite.  The
// highest-priority non-empty entry fixes the keyed band: every entry matching
// exactly its fields, each under the same (global) mask, with a gather that
// fits four key words (newKeyGather).  Every other entry — the tail, returned
// in priority order — must sit strictly below the whole band: a tail entry
// may overlap any band entry, and one hash lookup must give priority order.
func hashPrerequisite(entries []*openflow.FlowEntry) (g keyGather, tail []*openflow.FlowEntry, ok bool) {
	bandLo, tailHi := math.MaxInt, math.MinInt
	for _, e := range entries {
		if g.set == 0 && !e.Match.IsEmpty() {
			if g, ok = newKeyGather(e.Match); !ok {
				return keyGather{}, nil, false
			}
		}
		if g.set != 0 && g.compatible(e.Match) {
			bandLo = min(bandLo, e.Priority)
			continue
		}
		tail = append(tail, e)
		tailHi = max(tailHi, e.Priority)
	}
	return g, tail, g.set != 0 && tailHi < bandLo
}

// lpm32Fields are the fields the LPM template applies to (32-bit addresses).
var lpm32Fields = map[openflow.Field]bool{
	openflow.FieldIPSrc:  true,
	openflow.FieldIPDst:  true,
	openflow.FieldARPSPA: true,
	openflow.FieldARPTPA: true,
}

// lpmPrerequisite checks the LPM prerequisite: a single 32-bit field, all
// masks are prefixes, and priorities are consistent with prefix lengths
// (whenever two rules overlap, the more specific one has strictly higher
// priority).  A single catch-all entry is allowed as the default route and
// must have the lowest priority.
func lpmPrerequisite(entries []*openflow.FlowEntry) (openflow.Field, bool) {
	var field openflow.Field
	haveField := false
	type pfx struct {
		addr uint32 // masked to len bits
		len  int
	}
	type route struct {
		pfx
		prio int
	}
	var routes []route
	var lens uint64 // bit n set: some route is a /n
	minPrio := math.MaxInt
	catchAllPrio := 0
	haveCatchAll := false
	for _, e := range entries {
		if e.Match.IsEmpty() {
			if haveCatchAll {
				return 0, false
			}
			haveCatchAll = true
			catchAllPrio = e.Priority
			continue
		}
		fields := e.Match.Fields().Fields()
		if len(fields) != 1 || !lpm32Fields[fields[0]] {
			return 0, false
		}
		if !haveField {
			field = fields[0]
			haveField = true
		} else if fields[0] != field {
			return 0, false
		}
		plen, ok := e.Match.IsPrefix(field)
		if !ok || plen == 0 {
			return 0, false
		}
		v, _, _ := e.Match.Get(field)
		routes = append(routes, route{pfx{uint32(v) & prefixMask(plen), plen}, e.Priority})
		lens |= 1 << plen
		minPrio = min(minPrio, e.Priority)
	}
	if !haveField || (haveCatchAll && catchAllPrio >= minPrio) {
		return 0, false
	}
	// Overlapping prefixes of different length: longer must have strictly
	// higher priority.  Equal-length prefixes never overlap (they are
	// either equal or disjoint), so each route is held against the highest
	// priority under the prefix covering it at every shorter length in use.
	top := make(map[pfx]int, len(routes))
	for _, r := range routes {
		if prio, ok := top[r.pfx]; !ok || r.prio > prio {
			top[r.pfx] = r.prio
		}
	}
	for _, r := range routes {
		for shorter := lens & (1<<r.len - 1); shorter != 0; shorter &= shorter - 1 {
			n := bits.TrailingZeros64(shorter)
			if prio, ok := top[pfx{r.addr & prefixMask(n), n}]; ok && prio >= r.prio {
				return 0, false
			}
		}
	}
	return field, true
}

// prefixMask is the mask of an IPv4 /n prefix.
func prefixMask(n int) uint32 { return ^uint32(0) << (32 - n) }

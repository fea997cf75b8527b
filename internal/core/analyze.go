package core

import (
	"math"
	"math/bits"

	"eswitch/internal/openflow"
)

// analysis is the result of the flow-table analysis pass for one table
// (§3.2): the selected template and the template parameters.
type analysis struct {
	kind TemplateKind
	// hash template parameters (global masks).
	fields []openflow.Field
	masks  []uint64
	// LPM template parameter.
	lpmField openflow.Field
}

// analyzeTable selects the most efficient template whose prerequisite the
// table satisfies, in the fallback order of Fig. 4: direct code for tiny
// tables, then compound hash, then LPM, then linked list.
func analyzeTable(t *openflow.FlowTable, opts Options) analysis {
	entries := t.Entries()
	if len(entries) <= opts.DirectCodeMaxEntries {
		return analysis{kind: TemplateDirectCode}
	}
	if fields, masks, ok := hashPrerequisite(entries); ok {
		return analysis{kind: TemplateHash, fields: fields, masks: masks}
	}
	if field, ok := lpmPrerequisite(entries); ok {
		return analysis{kind: TemplateLPM, lpmField: field}
	}
	return analysis{kind: TemplateLinkedList}
}

// hashPrerequisite checks the compound-hash prerequisite: every non-catch-all
// entry matches exactly the same fields, each field under exactly the same
// (global) mask, the packed key fits the hash key width, and at most one
// catch-all (empty-match) entry exists, which must not outrank any specific
// entry it overlaps — since the catch-all overlaps everything, it must have
// the lowest priority in the table.
func hashPrerequisite(entries []*openflow.FlowEntry) ([]openflow.Field, []uint64, bool) {
	var fields []openflow.Field
	var masks []uint64
	catchAlls := 0
	minSpecific := 0
	haveSpecific := false
	for _, e := range entries {
		if e.Match.IsEmpty() {
			catchAlls++
			if catchAlls > 1 {
				return nil, nil, false
			}
			continue
		}
		efields := e.Match.Fields().Fields()
		if fields == nil {
			fields = efields
			masks = make([]uint64, len(fields))
			for i, f := range fields {
				_, m, _ := e.Match.Get(f)
				masks[i] = m
			}
			if keyWidth(fields) > maxKeyBits {
				return nil, nil, false
			}
		} else {
			if len(efields) != len(fields) {
				return nil, nil, false
			}
			for i, f := range efields {
				if f != fields[i] {
					return nil, nil, false
				}
				_, m, _ := e.Match.Get(f)
				if m != masks[i] {
					return nil, nil, false
				}
			}
		}
		if !haveSpecific || e.Priority < minSpecific {
			minSpecific = e.Priority
			haveSpecific = true
		}
	}
	if !haveSpecific {
		return nil, nil, false
	}
	if catchAlls == 1 {
		// The catch-all must have strictly the lowest priority, otherwise
		// it could shadow a specific entry and a single hash lookup would
		// not reproduce priority semantics.
		for _, e := range entries {
			if e.Match.IsEmpty() && e.Priority >= minSpecific {
				return nil, nil, false
			}
		}
	}
	return fields, masks, true
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

package core

import (
	"cmp"
	"maps"
	"slices"

	"eswitch/internal/openflow"
)

// DecomposePipeline runs the flow-table decomposition pass of §3.2 over every
// table of the pipeline: tables that would otherwise fall back to the slow
// linked-list template are rewritten into an equivalent multi-stage pipeline
// whose stages satisfy the fast templates' prerequisites.  It returns the
// decomposed pipeline and the number of extra tables introduced.
//
// Following the paper, the pass is a no-op for tables that already fit a fast
// template (which, empirically, covers most production pipelines), and it is
// only applied to tables whose rules are exact-match-or-wildcard (arbitrary
// masks stay on the linked-list template).
//
// pl is left as it was: the pass works on a fork of it, which shares the
// entries of the tables it leaves alone (a decomposed table's entries are
// derived copies), so no entry of either may be modified afterwards.
func DecomposePipeline(pl *openflow.Pipeline, opts Options) (*openflow.Pipeline, int) {
	out, from, _ := decompose(pl, opts)
	return out, len(from)
}

// decompose is DecomposePipeline over a fork of pl, sharing the entries of
// the tables it leaves alone.  from maps each table it created to the source
// table it was derived from, and origin each derived entry to its source.
func decompose(pl *openflow.Pipeline, opts Options) (out *openflow.Pipeline, from map[openflow.TableID]openflow.TableID, origin map[*openflow.FlowEntry]*openflow.FlowEntry) {
	out, origin = pl.Fork(), make(map[*openflow.FlowEntry]*openflow.FlowEntry)
	from = make(map[openflow.TableID]openflow.TableID)
	for _, id := range out.TableIDs() {
		t := out.Table(id)
		if t == nil {
			continue
		}
		a := analyzeTable(t, opts)
		if a.kind != TemplateLinkedList {
			continue
		}
		decomposeTable(out, t, opts, origin, from)
	}
	return out, from, origin
}

// decomposable reports whether the table fits the decomposer's setting: every
// field is either absent (wildcard) or matched under one uniform per-column
// mask shared by all entries that set it.  Exact-or-wildcard tables (the
// simplified setting of §3.2) satisfy this trivially; the uniform-mask
// generalization covers cases like the load balancer's /1 source-address
// split (the paper notes the extension to masked keys).
func decomposable(t *openflow.FlowTable) bool {
	var masks [openflow.NumFields]uint64
	var seen [openflow.NumFields]bool
	for _, e := range t.Entries() {
		for _, f := range e.Match.Fields().Fields() {
			_, mask, _ := e.Match.Get(f)
			if !seen[f] {
				seen[f], masks[f] = true, mask
				continue
			}
			if masks[f] != mask {
				return false
			}
		}
	}
	return true
}

// columnMask returns the uniform mask used by column f in the table (the
// field's full mask if no entry sets it).
func columnMask(t *openflow.FlowTable, f openflow.Field) uint64 {
	for _, e := range t.Entries() {
		if _, mask, ok := e.Match.Get(f); ok {
			return mask
		}
	}
	return f.FullMask()
}

// maxDecomposedTables bounds how many tables a single decomposition may
// produce.  The paper notes that for very complex tables the decomposer
// "cannot help but output an immense number of tables"; beyond this budget
// the remaining sub-tables are left on the linked-list template instead of
// being decomposed further.
const maxDecomposedTables = 4096

// decomposeTable rewrites table t in place (inside pipeline pl) into a
// sub-pipeline of single-field exact-match stages following DECOMPOSE(T) of
// Fig. 6, noting each new table's source, t, in from.
func decomposeTable(pl *openflow.Pipeline, t *openflow.FlowTable, opts Options, origin map[*openflow.FlowEntry]*openflow.FlowEntry, from map[openflow.TableID]openflow.TableID) {
	if !decomposable(t) {
		return
	}
	created := 0
	// Recursive worklist: tables that still need decomposition.
	var recurse func(cur *openflow.FlowTable)
	recurse = func(cur *openflow.FlowTable) {
		if created >= maxDecomposedTables {
			return
		}
		// Stop when the table already fits a fast template.
		if a := analyzeTable(cur, opts); a.kind != TemplateLinkedList {
			return
		}
		fields := cur.MatchFields().Fields()
		if len(fields) <= 1 {
			return
		}

		// Step 1–2: per-column distinct keys; pick the column of minimal
		// (non-zero) diversity.
		type colInfo struct {
			field openflow.Field
			keys  map[uint64]bool
		}
		cols := make([]colInfo, 0, len(fields))
		for _, f := range fields {
			keys := make(map[uint64]bool)
			for _, e := range cur.Entries() {
				if v, _, ok := e.Match.Get(f); ok {
					keys[v] = true
				}
			}
			if len(keys) > 0 {
				cols = append(cols, colInfo{field: f, keys: keys})
			}
		}
		if len(cols) == 0 {
			return
		}
		best := cols[0]
		for _, c := range cols[1:] {
			if len(c.keys) < len(best.keys) {
				best = c
			}
		}
		p := best.field

		// Step 3: one new table per distinct key, plus one for the
		// wildcard path when any entry wildcards column p.  Keys are taken
		// in ascending order, so the new tables' IDs, the dispatch entries
		// and the recursion are the same from one run to the next.
		keys := slices.Sorted(maps.Keys(best.keys))
		subTables := make(map[uint64]*openflow.FlowTable, len(keys))
		var wildTable *openflow.FlowTable
		newTable := func(name string) *openflow.FlowTable {
			nt := pl.AddTable(pl.NextFreeTableID())
			nt.Name = name
			from[nt.ID] = t.ID
			created++
			return nt
		}
		for _, e := range cur.Entries() {
			if _, _, ok := e.Match.Get(p); !ok && wildTable == nil {
				wildTable = newTable(cur.Name + "/*")
			}
		}
		for _, key := range keys {
			subTables[key] = newTable(cur.Name + "/" + p.String())
		}

		// Step 4: distribute the (stripped) entries.  When two original
		// rules strip to the same match and priority in a sub-table, the
		// one earlier in the original order must keep precedence, so
		// later duplicates are skipped rather than replacing it.
		addIfAbsent := func(st *openflow.FlowTable, e *openflow.FlowEntry) {
			for _, old := range st.Entries() {
				if old.Priority == e.Priority && old.Match.Equal(e.Match) {
					return
				}
			}
			st.Add(e)
		}
		derive := func(e *openflow.FlowEntry) *openflow.FlowEntry {
			c := e.Clone()
			origin[c] = cmp.Or(origin[e], e)
			return c
		}
		for _, e := range cur.Entries() {
			stripped := derive(e)
			v, _, hasKey := e.Match.Get(p)
			stripped.Match.Unset(p)
			if hasKey {
				addIfAbsent(subTables[v], stripped)
			} else {
				// Wildcard in column p: the rule applies on every path.
				for _, key := range keys {
					addIfAbsent(subTables[key], derive(stripped))
				}
				if wildTable != nil {
					addIfAbsent(wildTable, derive(stripped))
				}
			}
		}

		// Replace cur's contents with single-field dispatch entries,
		// matching under the column's uniform mask.
		colMask := columnMask(cur, p)
		dispatch := make([]*openflow.FlowEntry, 0, len(subTables)+1)
		for _, key := range keys {
			m := openflow.NewMatch().SetMasked(p, key, colMask)
			dispatch = append(dispatch, openflow.NewEntry(10, m, openflow.Goto(subTables[key].ID)))
		}
		var catchAll *openflow.FlowEntry
		if wildTable != nil {
			catchAll = openflow.NewEntry(1, openflow.NewMatch(), openflow.Goto(wildTable.ID))
		}
		cur.DeleteWhere(func(*openflow.FlowEntry) bool { return true })
		for _, e := range dispatch {
			cur.Add(e)
		}
		if catchAll != nil {
			cur.Add(catchAll)
		}

		// Recurse into the sub-tables.
		for _, key := range keys {
			recurse(subTables[key])
		}
		if wildTable != nil {
			recurse(wildTable)
		}
	}
	recurse(t)
}

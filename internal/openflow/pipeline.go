package openflow

import (
	"fmt"
	"sort"
	"strings"

	"eswitch/internal/pkt"
)

// MissBehaviour selects what happens to packets that miss every entry of a
// table with no explicit table-miss (priority-0 catch-all) entry.
type MissBehaviour uint8

// Table-miss behaviours.
const (
	// MissController punts unmatched packets to the controller; the zero
	// MissBehaviour drops them silently.
	MissController MissBehaviour = 1
)

// Pipeline is a complete OpenFlow pipeline: a set of flow tables linked by
// goto_table instructions, with processing starting at Table 0.
type Pipeline struct {
	// Miss selects the table-miss behaviour for the whole pipeline.
	Miss MissBehaviour
	// NumPorts is the number of physical ports; flood actions expand to
	// all ports except the ingress port.
	NumPorts int

	tables map[TableID]*FlowTable
	order  []TableID
}

// NewPipeline returns an empty pipeline with an empty Table 0.
func NewPipeline(numPorts int) *Pipeline {
	p := &Pipeline{NumPorts: numPorts, tables: make(map[TableID]*FlowTable)}
	p.AddTable(0)
	return p
}

// AddTable creates (or returns the existing) table with the given ID.
func (pl *Pipeline) AddTable(id TableID) *FlowTable {
	if t, ok := pl.tables[id]; ok {
		return t
	}
	t := NewFlowTable(id)
	pl.tables[id] = t
	pl.order = append(pl.order, id)
	sort.Slice(pl.order, func(i, j int) bool { return pl.order[i] < pl.order[j] })
	return t
}

// Table returns the table with the given ID, or nil if it does not exist.
func (pl *Pipeline) Table(id TableID) *FlowTable { return pl.tables[id] }

// Tables returns the pipeline's tables in increasing table-ID order.
func (pl *Pipeline) Tables() []*FlowTable {
	out := make([]*FlowTable, 0, len(pl.order))
	for _, id := range pl.order {
		out = append(out, pl.tables[id])
	}
	return out
}

// TableIDs returns the pipeline's table IDs in increasing order.
func (pl *Pipeline) TableIDs() []TableID {
	out := make([]TableID, len(pl.order))
	copy(out, pl.order)
	return out
}

// NumTables returns the number of tables in the pipeline.
func (pl *Pipeline) NumTables() int { return len(pl.tables) }

// NumEntries returns the total number of flow entries across all tables.
func (pl *Pipeline) NumEntries() int {
	n := 0
	for _, t := range pl.tables {
		n += t.Len()
	}
	return n
}

// NextFreeTableID returns the smallest table ID greater than every existing
// table's ID; the decomposer uses it to allocate internal tables.
func (pl *Pipeline) NextFreeTableID() TableID {
	var maxID TableID
	for id := range pl.tables {
		if id > maxID {
			maxID = id
		}
	}
	return maxID + 1
}

// RequiredLayer returns the deepest parse layer any match field in any table
// requires; the ESWITCH compiler uses it to pick the parser template.
func (pl *Pipeline) RequiredLayer() pkt.Layer {
	layer := pkt.LayerNone
	for _, t := range pl.tables {
		if l := t.MatchFields().RequiredLayer(); l > layer {
			layer = l
		}
	}
	return layer
}

// Clone returns a deep copy of the pipeline (entries cloned, counters
// zeroed).
func (pl *Pipeline) Clone() *Pipeline {
	c := &Pipeline{Miss: pl.Miss, NumPorts: pl.NumPorts, tables: make(map[TableID]*FlowTable, len(pl.tables))}
	for _, id := range pl.order {
		c.tables[id] = pl.tables[id].Clone()
	}
	c.order = append([]TableID(nil), pl.order...)
	return c
}

// Fork returns a copy of the pipeline whose tables are forks of pl's
// (FlowTable.Fork): the copy takes flow-mods without touching pl.
func (pl *Pipeline) Fork() *Pipeline {
	c := &Pipeline{Miss: pl.Miss, NumPorts: pl.NumPorts, tables: make(map[TableID]*FlowTable, len(pl.tables))}
	for _, id := range pl.order {
		c.tables[id] = pl.tables[id].Fork()
	}
	c.order = append([]TableID(nil), pl.order...)
	return c
}

// Validate checks structural invariants: Table 0 exists, every goto_table
// target exists, and the table graph is acyclic.  (Wire-level OpenFlow
// additionally requires goto targets to be strictly increasing; internally
// decomposed pipelines (§3.2) relax that to any DAG, which is what is checked
// here.)
func (pl *Pipeline) Validate() error {
	if pl.Table(0) == nil {
		return fmt.Errorf("pipeline has no table 0")
	}
	edges := make(map[TableID][]TableID)
	for _, t := range pl.Tables() {
		for _, e := range t.Entries() {
			if !e.Instructions.HasGoto {
				continue
			}
			target := e.Instructions.GotoTable
			if pl.Table(target) == nil {
				return fmt.Errorf("table %d entry %q: goto_table %d does not exist", t.ID, e.Match, target)
			}
			edges[t.ID] = append(edges[t.ID], target)
		}
	}
	// DFS cycle detection over the goto graph.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[TableID]int)
	var visit func(id TableID) error
	visit = func(id TableID) error {
		switch state[id] {
		case visiting:
			return fmt.Errorf("goto_table cycle through table %d", id)
		case done:
			return nil
		}
		state[id] = visiting
		for _, next := range edges[id] {
			if err := visit(next); err != nil {
				return err
			}
		}
		state[id] = done
		return nil
	}
	for _, t := range pl.Tables() {
		if err := visit(t.ID); err != nil {
			return err
		}
	}
	return nil
}

// String renders the whole pipeline, one table after another.
func (pl *Pipeline) String() string {
	var sb strings.Builder
	for _, t := range pl.Tables() {
		sb.WriteString(t.String())
	}
	return sb.String()
}

// MaxPipelineDepth bounds the number of table transitions the interpreter
// will follow; it protects against accidental goto loops in hand-built
// (non-validated) pipelines.
const MaxPipelineDepth = 512

// Interpreter is the reference "direct datapath" (§2.1): it classifies
// packets right on the flow tables by linear priority-ordered search and
// follows goto_table instructions.  It is slow but obviously correct, and
// every other datapath in this repository is tested against it.
type Interpreter struct {
	Pipeline *Pipeline
	// UpdateCounters controls whether per-entry counters are maintained.
	UpdateCounters bool
}

// NewInterpreter returns an interpreter over the given pipeline.
func NewInterpreter(pl *Pipeline) *Interpreter {
	return &Interpreter{Pipeline: pl, UpdateCounters: true}
}

// Process sends one packet through the pipeline and fills in the verdict.
// The packet is parsed as deep as the pipeline requires.  If tracker is
// non-nil, every field examined during classification is reported to it.
func (in *Interpreter) Process(p *pkt.Packet, v *Verdict, tracker FieldTracker) {
	v.Reset()
	pkt.ParseTo(p, in.Pipeline.RequiredLayer())
	in.processParsed(p, v, tracker)
}

// processParsed is Process for packets that are already parsed.
func (in *Interpreter) processParsed(p *pkt.Packet, v *Verdict, tracker FieldTracker) {
	pl := in.Pipeline
	var actionSet ActionList
	tableID := TableID(0)
	for depth := 0; depth < MaxPipelineDepth; depth++ {
		table := pl.Table(tableID)
		if table == nil {
			break
		}
		v.Tables++
		entry := table.Lookup(p, tracker)
		if entry == nil {
			// Table miss with no miss entry.
			v.TableMiss = true
			switch pl.Miss {
			case MissController:
				v.ToController = true
				v.NotePunt(PuntMiss, tableID)
			default:
				v.Dropped = true
			}
			return
		}
		if in.UpdateCounters {
			entry.Counters.Add(len(p.Data))
		}
		if entry.Instructions.Execute(p, v, &actionSet, pl.NumPorts, tableID) != StepNext {
			return
		}
		tableID = entry.Instructions.GotoTable
	}
	v.Dropped = true
}

// Step is how executing one matched entry's instructions ended.
type Step uint8

const (
	// StepNext continues at the entry's goto_table target.
	StepNext Step = iota
	// StepDropped ends processing on an explicit drop in apply-actions.
	StepDropped
	// StepTerminal ends processing at the end of the pipeline (no goto),
	// after the accumulated action set ran.
	StepTerminal
)

// Execute runs one matched entry's instructions against the packet:
// apply-actions, the action set (set, written only when an instruction
// touches it), the metadata write and, when the entry has no goto, the
// accumulated set.  A punt the entry executes is attributed to table, its
// own.  It is the specification's instruction step, shared by the
// interpreter and the baseline's slow path, and the compiled walker's
// fallback where its action program (internal/core) cannot express a set;
// each keeps its own walk, miss handling and counting.
func (ins *Instructions) Execute(p *pkt.Packet, v *Verdict, set *ActionList, numPorts int, table TableID) Step {
	if len(ins.ApplyActions) > 0 {
		ApplyActions(ins.ApplyActions, p, v, numPorts)
		if v.ToController {
			v.NotePunt(PuntAction, table)
		}
		if v.Dropped && !v.Forwarded() && !v.ToController {
			// An explicit drop in apply-actions ends processing.
			if len(ins.ApplyActions.BeforeDrop()) < len(ins.ApplyActions) {
				return StepDropped
			}
			// Otherwise the flag only says no output has happened yet.
			v.Dropped = false
		}
	}
	if ins.ClearActions {
		*set = (*set)[:0]
	}
	if len(ins.WriteActions) > 0 {
		*set = set.Merge(ins.WriteActions)
	}
	if ins.MetadataMask != 0 {
		p.Metadata = (p.Metadata &^ ins.MetadataMask) | (ins.WriteMetadata & ins.MetadataMask)
	}
	if ins.HasGoto {
		return StepNext
	}
	if len(*set) > 0 {
		ApplyActions(*set, p, v, numPorts)
		if v.ToController {
			v.NotePunt(PuntAction, table)
		}
	}
	if !v.Forwarded() && !v.ToController {
		v.Dropped = true
	}
	return StepTerminal
}

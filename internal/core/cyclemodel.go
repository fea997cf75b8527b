package core

import (
	"maps"

	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// This file is the cycle model's reading of the compiled datapath, and the
// only one besides core.go (Options.Meter) that imports cpumodel.  No template
// charges a meter: a metered Process's recording burst of one (recordBurst) notes
// what each lookup examined in a TraceStep, and Process prices that record
// once the walk is done (priceWalk).

// Meter returns the datapath's cycle meter (nil when not metering).
func (d *Datapath) Meter() *cpumodel.Meter { return d.opts.Meter }

// tableRegions maps each compiled table to the slice of the simulated address
// space its lookups touch.  The writer carves a table's region whenever it
// builds the table and never mutates a published map, so a metered walk reads
// the one in its snapshot without a race.  A mod applied in place keeps the
// region of the table it updates.
type tableRegions map[openflow.TableID]*cpumodel.Region

// carve returns a copy of rs in which table id, just built as dp, has a fresh
// region named and sized after dp's template.  Direct code has none: its keys
// are folded into the matchers.
func (rs tableRegions) carve(m *cpumodel.Meter, id openflow.TableID, dp tableDatapath) tableRegions {
	next := tableRegions{}
	maps.Copy(next, rs)
	switch dp := dp.(type) {
	case *hashTable:
		next[id] = m.NewRegion("hash-table", dp.table.MemoryFootprint())
	case *lpmTable:
		next[id] = m.NewRegion("lpm-table", dp.table.FirstLevelSize()*4+1<<20)
	case *listTable:
		next[id] = m.NewRegion("list-table", 1<<20)
	}
	return next
}

// priceWalk charges m for one packet parsed to layer and walked through steps:
// packet I/O and the parser, then per step the lookup's fixed cost, its
// per-rule, per-level or per-tuple cost and its simulated memory accesses at
// the step's Offset in the table's region, a miss's packet I/O, and the
// actions and packet I/O of the entry that ended the walk; a hash miss's
// direct-code tail goes unpriced.  A table missing from regions (built after
// the walk's snapshot) is priced without accesses.
func priceWalk(m *cpumodel.Meter, layer pkt.Layer, steps []TraceStep, regions tableRegions) {
	m.StartPacket()
	m.AddCycles(cpumodel.CostPktIO + parserCost(layer))
	for i := range steps {
		st := &steps[i]
		r := regions[st.Table]
		switch st.Template {
		case TemplateDirectCode:
			m.AddCycles(cpumodel.CostDirectFixed + st.Examined*cpumodel.CostDirectPerEntry)
		case TemplateHash:
			m.AddCycles(cpumodel.CostHashFixed)
			if st.Examined > 0 {
				m.RegionAccess(r, st.Offset)
			}
		case TemplateLPM:
			// The first level, and the tbl8 group when the lookup followed
			// one (Fig. 20 charges 13 + 2·Lx assuming both).
			m.AddCycles(cpumodel.CostLPMFixed)
			if st.Examined > 0 {
				m.RegionAccess(r, st.Offset>>8)
			}
			if st.Examined > 1 {
				m.RegionAccess(r, st.Offset|1<<40)
			}
		case TemplateLinkedList:
			m.AddCycles(cpumodel.CostTSSPerGroup * max(st.Examined, 1))
			for g := 0; g < st.Examined; g++ {
				m.RegionAccess(r, uint64(g)*4096+st.Offset)
			}
		}
		switch {
		case !st.Matched:
			m.AddCycles(cpumodel.CostPktIO)
		case st.Outcome == openflow.StepDropped:
			m.AddCycles(cpumodel.CostActions)
		case st.Outcome == openflow.StepTerminal:
			m.AddCycles(cpumodel.CostActions + cpumodel.CostPktIO)
		}
	}
}

func parserCost(layer pkt.Layer) int {
	switch layer {
	case pkt.LayerNone:
		return 4
	case pkt.LayerL2:
		return 10
	case pkt.LayerL3:
		return 20
	default:
		return cpumodel.CostParser
	}
}

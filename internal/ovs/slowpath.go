package ovs

import (
	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/tss"
)

// slowPath classifies the packet over the full OpenFlow pipeline (the
// "vswitchd" level), fills in the verdict, and returns the megaflow to
// install: a masked match covering every packet that would have taken exactly
// the same decisions, together with the flattened action list that reproduces
// those decisions.
//
// The megaflow mask is the union of everything the classification had to
// look at (§2.2): the fields of every rule that matched, and — for every
// higher-priority rule that did not match — the bits needed to prove the
// mismatch.  For exact matches on ports and IPv4 addresses that proof is only
// the most-significant bits up to the first divergent bit (OVS's
// staged-lookup/prefix-tracking behaviour, which is what makes megaflow
// generation arrival-order dependent, Fig. 3); for any other field the
// rule's full mask is un-wildcarded.  The observation rules themselves live
// in openflow.MaskAccumulator, shared with the compiled datapath's megaflow
// cache (internal/core) so the two layers derive identical masks.
func (s *Switch) slowPath(p *pkt.Packet, v *openflow.Verdict) *megaflow {
	acc := &openflow.MaskAccumulator{}
	// Megaflow keys are built from the packet's original header values:
	// header rewrites applied along the walk must not leak into the cache
	// key (two packets that agree on all originally-observed fields follow
	// the same path and receive the same rewrites, so this is sound).
	orig := &pkt.Packet{Data: p.Data, InPort: p.InPort, Metadata: p.Metadata, Headers: p.Headers}
	acc.Reset(orig)
	var flat, actionSet openflow.ActionList

	pl := s.pipeline
	tableID := openflow.TableID(0)
	for depth := 0; depth < openflow.MaxPipelineDepth; depth++ {
		table := pl.Table(tableID)
		if table == nil {
			break
		}
		v.Tables++
		matched := s.classifyTable(table, p, acc)
		if matched == nil {
			v.TableMiss = true
			switch pl.Miss {
			case openflow.MissController:
				v.ToController = true
				v.NotePunt(openflow.PuntMiss, tableID)
				flat = append(flat, openflow.ToController())
			default:
				v.Dropped = true
			}
			return s.finishMegaflow(acc, flat, v)
		}
		ins := &matched.Instructions
		step := ins.Execute(p, v, &actionSet, pl.NumPorts, tableID)
		// Fields rewritten by apply-actions are deterministic for every packet
		// on this path: suppress their later observation so the megaflow never
		// pairs an original value with a post-rewrite mask.
		acc.MarkModifiedActions(ins.ApplyActions)
		// An explicit drop ends the list, not the walk when something was
		// already output: the cached list keeps only what ran.
		flat = append(flat, ins.ApplyActions.BeforeDrop()...)
		if step == openflow.StepDropped {
			return s.finishMegaflow(acc, flat, v)
		}
		if ins.MetadataMask != 0 {
			acc.MarkMetadataWrite(ins.MetadataMask)
			// The cached actions replay the register as the walk left it;
			// packets enter with metadata zero (no cache level keys on it).
			flat = append(flat, openflow.SetField(openflow.FieldMetadata, p.Metadata))
		}
		if step == openflow.StepTerminal {
			return s.finishMegaflow(acc, append(flat, actionSet...), v)
		}
		tableID = ins.GotoTable
	}
	v.Dropped = true
	return s.finishMegaflow(acc, flat, v)
}

// slowPathLinearThreshold is the table size up to which the slow path
// classifies rule by rule (which enables the per-rule, bit-granular prefix
// refinement of Fig. 3); larger tables use a per-table tuple-space classifier
// exactly like vswitchd's own classifier, whose probed-tuple masks feed the
// megaflow mask instead.
const slowPathLinearThreshold = 64

// classifyTable returns the highest-priority entry of the table matching p,
// accumulating the examined fields/bits into acc.
func (s *Switch) classifyTable(table *openflow.FlowTable, p *pkt.Packet, acc *openflow.MaskAccumulator) *openflow.FlowEntry {
	m := s.meter
	if table.Len() <= slowPathLinearThreshold {
		for _, e := range table.Entries() {
			m.AddCycles(cpumodel.CostSlowPathPerEntry)
			m.RegionAccess(s.slowRegion, uint64(table.ID)<<20^uint64(e.Priority)<<8^uint64(p.Headers.IPDst))
			if acc.ObserveRule(p, e.Match) {
				return e
			}
		}
		return nil
	}
	cls, ok := s.slowClassifiers[table.ID]
	if !ok {
		cls = tss.New()
		for _, e := range table.Entries() {
			cls.Insert(&tss.Entry{Priority: e.Priority, Match: e.Match, Aux: e})
		}
		s.slowClassifiers[table.ID] = cls
	}
	res := cls.Lookup(p, acc)
	m.AddCycles(cpumodel.CostSlowPathPerEntry * maxInt(res.GroupsProbed, 1))
	for g := 0; g < maxInt(res.GroupsProbed, 1); g++ {
		m.RegionAccess(s.slowRegion, uint64(table.ID)<<20^uint64(g)<<9^uint64(p.Headers.IPDst))
	}
	if res.Entry == nil {
		return nil
	}
	return res.Entry.Aux.(*openflow.FlowEntry)
}

// finishMegaflow builds the megaflow entry from the accumulated masks and the
// walk's verdict v, whose punt attribution the entry replays.  The field
// values are taken from the original packet header values captured when the
// accumulator first observed each field, so header rewrites performed by
// earlier stages do not corrupt the cache key.
func (s *Switch) finishMegaflow(acc *openflow.MaskAccumulator, flat openflow.ActionList, v *openflow.Verdict) *megaflow {
	if s.opts.ConservativeTransportMask && acc.Orig() != nil {
		orig := acc.Orig()
		switch {
		case orig.Headers.Has(pkt.ProtoTCP):
			acc.Observe(orig, openflow.FieldTCPSrc, openflow.FieldTCPSrc.FullMask())
			acc.Observe(orig, openflow.FieldTCPDst, openflow.FieldTCPDst.FullMask())
		case orig.Headers.Has(pkt.ProtoUDP):
			acc.Observe(orig, openflow.FieldUDPSrc, openflow.FieldUDPSrc.FullMask())
			acc.Observe(orig, openflow.FieldUDPDst, openflow.FieldUDPDst.FullMask())
		case orig.Headers.Has(pkt.ProtoSCTP):
			acc.Observe(orig, openflow.FieldSCTPSrc, openflow.FieldSCTPSrc.FullMask())
			acc.Observe(orig, openflow.FieldSCTPDst, openflow.FieldSCTPDst.FullMask())
		}
	}
	match := openflow.NewMatch()
	acc.ForEach(func(f openflow.Field, value, mask uint64) {
		match.SetMasked(f, value, mask)
	})
	if len(flat) == 0 {
		flat = openflow.ActionList{openflow.Drop()}
	}
	return &megaflow{match: match, actions: flat, puntReason: v.PuntReason, puntTable: v.PuntTable}
}

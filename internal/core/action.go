package core

import (
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// sharedIns is the intern record of one distinct instruction set
// (internInstructions): the program its entries run and the set itself,
// which Execute runs where the program is generic.
type sharedIns struct {
	prog actionProgram
	openflow.Instructions
}

// actionProgram is an instruction set compiled once, at intern time, into
// the action template of §3.1: the header half as a writeSet, at most one
// physical output port or a controller punt, a masked metadata write, and a
// goto or a lone explicit drop.  run leaves exactly what Execute leaves on an
// empty action set.  A set it cannot express compiles to a generic program,
// and its entries run Execute.
type actionProgram struct {
	generic  bool
	applies  bool // the apply list is non-empty
	drop     bool // the apply list starts with an explicit drop
	punt     bool // output:CONTROLLER
	modified bool // the apply list has a header action
	hasGoto  bool
	out      uint32 // the output port; 0 when none
	metaMask uint64
	metaVal  uint64 // WriteMetadata & metaMask
	w        writeSet
}

// compileProgram compiles ins into its action program.  It returns a
// generic one for write-actions, clear-actions, set-field on metadata, a
// flood, output:TABLE, port 0 or a port above PortMax, more than one output,
// an output beside a goto, and a drop after other actions.
func compileProgram(ins *openflow.Instructions) actionProgram {
	generic := actionProgram{generic: true}
	if ins.ClearActions || len(ins.WriteActions) > 0 {
		return generic
	}
	pr := actionProgram{
		applies:  len(ins.ApplyActions) > 0,
		hasGoto:  ins.HasGoto,
		metaMask: ins.MetadataMask,
		metaVal:  ins.WriteMetadata & ins.MetadataMask,
	}
	run := ins.ApplyActions.BeforeDrop()
	if len(run) < len(ins.ApplyActions) {
		if len(run) > 0 {
			return generic
		}
		pr.drop = true
		return pr
	}
	outputs := 0
	for _, a := range run {
		switch a.Type {
		case openflow.ActionOutput:
			outputs++
			switch {
			case a.Port == openflow.PortController:
				pr.punt = true
			case a.Port == 0 || a.Port > openflow.PortMax:
				return generic
			default:
				pr.out = a.Port
			}
		case openflow.ActionSetField:
			if a.Field == openflow.FieldMetadata {
				return generic
			}
			pr.modified = true
		case openflow.ActionPushVLAN, openflow.ActionPopVLAN, openflow.ActionDecTTL:
			pr.modified = true
		default:
			return generic
		}
	}
	if outputs > 1 || outputs == 1 && ins.HasGoto {
		return generic
	}
	pr.w.addList(run)
	return pr
}

// run executes a non-generic program for a packet whose action set is
// empty, attributing a punt to table, and returns how the step ended.
func (pr *actionProgram) run(p *pkt.Packet, v *openflow.Verdict, table openflow.TableID) openflow.Step {
	if pr.drop {
		v.Dropped = true
		if v.ToController {
			v.NotePunt(openflow.PuntAction, table)
		} else if len(v.OutPorts) == 0 {
			// Nothing has left the switch: the drop ends the walk.
			return openflow.StepDropped
		}
	} else if pr.applies {
		if pr.modified {
			applyWrites(p, pr.w.fields, pr.w.ttlDec, &pr.w.patch)
			v.Modified = true
		}
		if pr.out != 0 {
			v.OutPorts = append(v.OutPorts, pr.out)
		}
		if pr.punt {
			v.ToController = true
		}
		if v.ToController {
			v.NotePunt(openflow.PuntAction, table)
		} else if len(v.OutPorts) == 0 {
			// Nothing has left the switch yet, and nothing dropped it.
			v.Dropped = false
		}
	}
	if pr.metaMask != 0 {
		p.Metadata = p.Metadata&^pr.metaMask | pr.metaVal
	}
	if pr.hasGoto {
		return openflow.StepNext
	}
	if len(v.OutPorts) == 0 && !v.ToController {
		v.Dropped = true
	}
	return openflow.StepTerminal
}

package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"eswitch/internal/pkt"
)

// Reserved OpenFlow port numbers.
const (
	// PortTable submits the packet to the first flow table.  It is only
	// valid in packet-out action lists (the controller re-injecting a punted
	// packet through the pipeline); in flow entries it is ignored.
	PortTable uint32 = 0xfffffff9
	// PortFlood floods the packet on every port except the ingress port.
	PortFlood uint32 = 0xfffffffb
	// PortController sends the packet to the controller (packet-in).
	PortController uint32 = 0xfffffffd
	// PortDrop is used internally in verdicts to denote a dropped packet.
	PortDrop uint32 = 0xffffffff
	// PortMax is the highest valid physical port number.
	PortMax uint32 = 0xffffff00
)

// PuntReason says why a packet was punted to the controller — the reason
// field of the resulting PacketIn.
type PuntReason uint8

// Punt reasons.
const (
	// PuntNone: the packet was not punted.
	PuntNone PuntReason = iota
	// PuntMiss: a table miss under the MissController behaviour.
	PuntMiss
	// PuntAction: an explicit output:CONTROLLER action.
	PuntAction
)

// String names the punt reason the way OpenFlow's packet-in reasons do.
func (r PuntReason) String() string {
	switch r {
	case PuntNone:
		return "none"
	case PuntMiss:
		return "no_match"
	case PuntAction:
		return "action"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// ActionType enumerates the supported OpenFlow actions.
type ActionType uint8

// Action types.
const (
	// ActionOutput forwards the packet to a port (or the controller/flood
	// reserved ports).
	ActionOutput ActionType = iota
	// ActionSetField rewrites a header field.
	ActionSetField
	// ActionPushVLAN pushes an 802.1Q tag.
	ActionPushVLAN
	// ActionPopVLAN pops the outermost 802.1Q tag.
	ActionPopVLAN
	// ActionDecTTL decrements the IPv4 TTL.
	ActionDecTTL
	// ActionDrop explicitly drops the packet.
	ActionDrop
)

// Action is a single OpenFlow action.
type Action struct {
	Type ActionType
	// Port is the output port for ActionOutput.
	Port uint32
	// Field and Value parameterize ActionSetField.
	Field Field
	Value uint64
}

// Output returns an output action to the given port.
func Output(port uint32) Action { return Action{Type: ActionOutput, Port: port} }

// ToController returns an output action to the controller.
func ToController() Action { return Action{Type: ActionOutput, Port: PortController} }

// Flood returns an output action flooding all ports but the ingress port.
func Flood() Action { return Action{Type: ActionOutput, Port: PortFlood} }

// SetField returns a set-field action.
func SetField(f Field, value uint64) Action {
	return Action{Type: ActionSetField, Field: f, Value: value & f.FullMask()}
}

// PushVLAN returns a push-VLAN action setting the given VLAN ID.
func PushVLAN(vid uint16) Action {
	return Action{Type: ActionPushVLAN, Field: FieldVLANID, Value: uint64(vid & 0x0fff)}
}

// PopVLAN returns a pop-VLAN action.
func PopVLAN() Action { return Action{Type: ActionPopVLAN} }

// DecTTL returns a decrement-TTL action.
func DecTTL() Action { return Action{Type: ActionDecTTL} }

// Drop returns an explicit drop action.
func Drop() Action { return Action{Type: ActionDrop} }

// String renders the action in ovs-ofctl-like syntax.
func (a Action) String() string {
	switch a.Type {
	case ActionOutput:
		switch a.Port {
		case PortController:
			return "controller"
		case PortFlood:
			return "flood"
		default:
			return fmt.Sprintf("output:%d", a.Port)
		}
	case ActionSetField:
		return fmt.Sprintf("set_field:%s=%d", a.Field, a.Value)
	case ActionPushVLAN:
		return fmt.Sprintf("push_vlan:%d", a.Value)
	case ActionPopVLAN:
		return "pop_vlan"
	case ActionDecTTL:
		return "dec_ttl"
	case ActionDrop:
		return "drop"
	default:
		return fmt.Sprintf("action(%d)", a.Type)
	}
}

// Equal reports whether two actions are identical.
func (a Action) Equal(b Action) bool { return a == b }

// ActionList is an ordered list of actions.
type ActionList []Action

// String renders the list in ovs-ofctl-like syntax.
func (l ActionList) String() string {
	if len(l) == 0 {
		return "drop"
	}
	parts := make([]string, len(l))
	for i, a := range l {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// Equal reports whether two action lists are element-wise identical.
func (l ActionList) Equal(o ActionList) bool {
	if len(l) != len(o) {
		return false
	}
	for i := range l {
		if l[i] != o[i] {
			return false
		}
	}
	return true
}

// appendKey appends the list's identity key to b — its length, then each
// action's fields at fixed width — for Instructions.AppendKey.
func (l ActionList) appendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(l)))
	for _, a := range l {
		b = append(b, byte(a.Type), byte(a.Field))
		b = binary.LittleEndian.AppendUint32(b, a.Port)
		b = binary.LittleEndian.AppendUint64(b, a.Value)
	}
	return b
}

// BeforeDrop returns the part of the list ApplyActions runs: everything
// before the first explicit drop.
func (l ActionList) BeforeDrop() ActionList {
	for i, a := range l {
		if a.Type == ActionDrop {
			return l[:i]
		}
	}
	return l
}

// actionSlot returns the action's slot in an OpenFlow 1.3 action set: the
// set holds at most one action per slot and runs them in slot order —
// pop_vlan, push_vlan, dec_ttl, set_field (one slot per field, in field
// order), then output.  An explicit drop shares output's slot.
func actionSlot(a Action) int {
	switch a.Type {
	case ActionPopVLAN:
		return 0
	case ActionPushVLAN:
		return 1
	case ActionDecTTL:
		return 2
	case ActionSetField:
		return 3 + int(a.Field)
	default: // output, drop
		return 3 + int(NumFields)
	}
}

// Merge merges written actions into the action set l, kept sorted by slot
// (actionSlot), and returns the set: a write replaces its slot's action in
// place — output and drop replace each other — or is inserted at its slot,
// so the set runs in OpenFlow 1.3's order whatever the write order.
func (l ActionList) Merge(writes ActionList) ActionList {
	for _, w := range writes {
		slot := actionSlot(w)
		i := 0
		for i < len(l) && actionSlot(l[i]) < slot {
			i++
		}
		if i == len(l) || actionSlot(l[i]) != slot {
			l = append(l, Action{})
			copy(l[i+1:], l[i:])
		}
		l[i] = w
	}
	return l
}

// Clone returns a copy of the action list.
func (l ActionList) Clone() ActionList {
	if l == nil {
		return nil
	}
	out := make(ActionList, len(l))
	copy(out, l)
	return out
}

// Verdict is the result of sending one packet through a datapath: where the
// packet goes and how it was modified.
type Verdict struct {
	// OutPorts lists the physical ports the packet is transmitted on.
	OutPorts []uint32
	// ToController is set when the packet must be punted to the controller.
	ToController bool
	// PuntReason records why the packet was (first) punted and PuntTable the
	// table that generated the punt — a table miss records the missing table,
	// an explicit output:CONTROLLER the table whose actions executed it.
	// Both are meaningful only when ToController is set; the slow path copies
	// them into the PacketIn it delivers.
	PuntReason PuntReason
	PuntTable  TableID
	// Dropped is set when the packet matched an explicit or implicit drop.
	Dropped bool
	// TableMiss is set when the pipeline ended in a table miss with no
	// miss entry configured (the packet is dropped or punted depending on
	// switch configuration).
	TableMiss bool
	// Modified is set when any header rewrite action was applied.
	Modified bool
	// Tables counts the number of flow-table lookups performed.
	Tables int
}

// Reset clears the verdict for reuse, keeping the OutPorts capacity.
func (v *Verdict) Reset() {
	v.OutPorts = v.OutPorts[:0]
	v.ToController = false
	v.PuntReason = PuntNone
	v.PuntTable = 0
	v.Dropped = false
	v.TableMiss = false
	v.Modified = false
	v.Tables = 0
}

// Forwarded reports whether the packet was sent out at least one port.
func (v *Verdict) Forwarded() bool { return len(v.OutPorts) > 0 }

// NotePunt records the punt cause, keeping the first attribution when a walk
// punts more than once (an explicit controller output followed by a miss).
func (v *Verdict) NotePunt(reason PuntReason, table TableID) {
	if v.PuntReason == PuntNone {
		v.PuntReason = reason
		v.PuntTable = table
	}
}

// Equivalent reports whether two verdicts describe the same externally
// observable outcome (same output ports in the same order, same controller /
// drop disposition).  Table-walk statistics are ignored.
func (v *Verdict) Equivalent(o *Verdict) bool {
	if v.ToController != o.ToController || v.Forwarded() != o.Forwarded() {
		return false
	}
	if len(v.OutPorts) != len(o.OutPorts) {
		return false
	}
	for i := range v.OutPorts {
		if v.OutPorts[i] != o.OutPorts[i] {
			return false
		}
	}
	return true
}

// String renders the verdict compactly.
func (v *Verdict) String() string {
	switch {
	case v.ToController && !v.Forwarded():
		return "controller"
	case v.Forwarded():
		parts := make([]string, len(v.OutPorts))
		for i, p := range v.OutPorts {
			parts[i] = utoa(uint64(p))
		}
		s := "output:" + strings.Join(parts, ",")
		if v.ToController {
			s += "+controller"
		}
		return s
	case v.TableMiss:
		return "miss"
	default:
		return "drop"
	}
}

// ApplyActions executes an action list against a packet, accumulating the
// externally visible outcome in the verdict and applying header rewrites to
// the parsed header view only: no code writes them back into the frame's
// raw bytes, so a transmitted frame is the one received.  numPorts is the
// port count used to expand flood actions.
func ApplyActions(actions ActionList, p *pkt.Packet, v *Verdict, numPorts int) {
	if len(actions) == 0 {
		v.Dropped = true
		return
	}
	for _, a := range actions {
		switch a.Type {
		case ActionOutput:
			switch a.Port {
			case PortController:
				v.ToController = true
			case PortTable:
				// Only meaningful in packet-out action lists, where the
				// slow path resolves it before calling ApplyActions; in a
				// flow entry it is ignored rather than treated as a port.
			case PortFlood:
				for port := 1; port <= numPorts; port++ {
					if uint32(port) != p.InPort {
						v.OutPorts = append(v.OutPorts, uint32(port))
					}
				}
			default:
				v.OutPorts = append(v.OutPorts, a.Port)
			}
		case ActionSetField:
			applySetField(p, a.Field, a.Value)
			v.Modified = true
		case ActionPushVLAN:
			p.Headers.Proto |= pkt.ProtoVLAN
			p.Headers.VLANID = uint16(a.Value)
			v.Modified = true
		case ActionPopVLAN:
			p.Headers.Proto &^= pkt.ProtoVLAN
			p.Headers.VLANID = 0
			v.Modified = true
		case ActionDecTTL:
			if p.Headers.IPTTL > 0 {
				p.Headers.IPTTL--
			}
			v.Modified = true
		case ActionDrop:
			v.Dropped = true
			return
		}
	}
	if !v.Forwarded() && !v.ToController {
		v.Dropped = true
	}
}

// applySetField rewrites a header field in the parsed view.
func applySetField(p *pkt.Packet, f Field, value uint64) {
	h := &p.Headers
	switch f {
	case FieldMetadata:
		p.Metadata = value
	case FieldEthDst:
		h.EthDst = pkt.MACFromUint64(value)
	case FieldEthSrc:
		h.EthSrc = pkt.MACFromUint64(value)
	case FieldVLANID:
		h.VLANID = uint16(value)
	case FieldVLANPCP:
		h.VLANPCP = uint8(value)
	case FieldIPSrc:
		h.IPSrc = pkt.IPv4(value)
	case FieldIPDst:
		h.IPDst = pkt.IPv4(value)
	case FieldIPDSCP:
		h.IPDSCP = uint8(value)
	case FieldTCPSrc, FieldUDPSrc, FieldSCTPSrc:
		h.L4Src = uint16(value)
	case FieldTCPDst, FieldUDPDst, FieldSCTPDst:
		h.L4Dst = uint16(value)
	}
}

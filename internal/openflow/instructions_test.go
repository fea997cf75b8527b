package openflow

import (
	"sort"
	"testing"

	"eswitch/internal/pkt"
)

// TestInstructionsExecute pins the rules of the one instruction step every
// executor runs.  Each case executes its entries in order on one packet,
// verdict and action set; every entry but the last must continue the walk.
func TestInstructionsExecute(t *testing.T) {
	type entry struct {
		table TableID
		ins   Instructions
	}
	next := func(ins Instructions) Instructions {
		ins.GotoTable, ins.HasGoto = 9, true
		return ins
	}
	cases := []struct {
		name     string
		entries  []entry
		metadata uint64 // the packet's metadata on entry
		want     Step
		ports    []uint32
		dropped  bool
		reason   PuntReason
		table    TableID
		// wantMeta is the metadata the walk leaves.
		wantMeta uint64
	}{
		{name: "explicit drop ends the walk",
			entries: []entry{{0, ApplyThenGoto(1, SetField(FieldIPDSCP, 10), Drop())}},
			want:    StepDropped, dropped: true},
		{name: "apply without output continues, not dropped",
			entries: []entry{{0, ApplyThenGoto(1, SetField(FieldIPDSCP, 10))}},
			want:    StepNext},
		{name: "clear, then write",
			entries: []entry{
				{0, next(Instructions{WriteActions: ActionList{Output(1), SetField(FieldVLANID, 5)}})},
				{1, Instructions{ClearActions: true, WriteActions: ActionList{Output(2)}}},
			},
			want: StepTerminal, ports: []uint32{2}},
		{name: "metadata write under its mask",
			entries:  []entry{{0, next(Instructions{WriteMetadata: 0x1234, MetadataMask: 0x00f0})}},
			metadata: 0xffff, want: StepNext, wantMeta: 0xff3f},
		{name: "terminal entry runs the action set",
			entries: []entry{{0, next(Instructions{WriteActions: ActionList{Output(3)}})}, {1, Instructions{}}},
			want:    StepTerminal, ports: []uint32{3}},
		{name: "empty terminal drops",
			entries: []entry{{0, Instructions{}}},
			want:    StepTerminal, dropped: true},
		{name: "first punt's reason and table win",
			entries: []entry{{2, ApplyThenGoto(5, ToController())}, {5, Apply(ToController(), Output(1))}},
			want:    StepTerminal, ports: []uint32{1}, reason: PuntAction, table: 2},
		{name: "a punt in the action set is the terminal table's",
			entries: []entry{{0, next(Instructions{WriteActions: ActionList{ToController()}})}, {3, Instructions{}}},
			want:    StepTerminal, reason: PuntAction, table: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := tcpPacket(t, 1, 1, 2, 3, 4)
			p.Metadata = c.metadata
			var v Verdict
			var set ActionList
			for i, e := range c.entries {
				got := e.ins.Execute(p, &v, &set, 4, e.table)
				if i < len(c.entries)-1 && got != StepNext {
					t.Fatalf("entry %d ended the walk (%d): %+v", i, got, v)
				}
				if i == len(c.entries)-1 && got != c.want {
					t.Fatalf("last entry: step %d, want %d (%+v)", got, c.want, v)
				}
			}
			if len(v.OutPorts) != len(c.ports) || v.Dropped != c.dropped ||
				v.ToController != (c.reason != PuntNone) || v.PuntReason != c.reason || v.PuntTable != c.table {
				t.Fatalf("verdict %+v; want ports %v dropped %v punt %s at table %d", v, c.ports, c.dropped, c.reason, c.table)
			}
			for i := range c.ports {
				if v.OutPorts[i] != c.ports[i] {
					t.Fatalf("ports %v, want %v", v.OutPorts, c.ports)
				}
			}
			if p.Metadata != c.wantMeta {
				t.Fatalf("metadata %#x, want %#x", p.Metadata, c.wantMeta)
			}
		})
	}
}

// TestInstructionsAppendKey: datapaths intern instruction sets by AppendKey,
// so two sets must share a key exactly when Equal holds — a field-by-field
// variation of one set gets a key of its own, and what Equal ignores (nil
// against empty lists, a goto target without HasGoto) does not.
func TestInstructionsAppendKey(t *testing.T) {
	base := Instructions{ApplyActions: ActionList{Output(1)}, WriteActions: ActionList{DecTTL()},
		ClearActions: true, WriteMetadata: 5, MetadataMask: 7, GotoTable: 3, HasGoto: true}
	vary := []func(*Instructions){
		func(i *Instructions) { i.ApplyActions = ActionList{Output(2)} },
		func(i *Instructions) { i.ApplyActions = nil },
		func(i *Instructions) { i.WriteActions = ActionList{DecTTL(), Output(1)} },
		func(i *Instructions) { i.ApplyActions, i.WriteActions = ActionList{Output(1), DecTTL()}, nil },
		func(i *Instructions) { i.ClearActions = false },
		func(i *Instructions) { i.WriteMetadata = 6 },
		func(i *Instructions) { i.MetadataMask = 6 },
		func(i *Instructions) { i.GotoTable = 4 },
		func(i *Instructions) { i.HasGoto = false },
	}
	key := func(ins Instructions) string { return string(ins.AppendKey(nil)) }
	seen := map[string]int{key(base): -1}
	for n, f := range vary {
		ins := base.clone()
		f(&ins)
		if prev, dup := seen[key(ins)]; dup {
			t.Errorf("variation %d shares its key with %d", n, prev)
		}
		seen[key(ins)] = n
	}
	a := Instructions{ApplyActions: ActionList{}, GotoTable: 9}
	if b := (Instructions{}); !a.Equal(b) || key(a) != key(b) {
		t.Errorf("equal sets, keys %x and %x", key(a), key(b))
	}
}

// TestActionSetSpecOrder writes every ordered pair of a pop, push, dec_ttl,
// two set-fields, an output and a drop in table 0 then table 1, and requires
// OpenFlow 1.3's action-set order whatever the write order: pop_vlan,
// push_vlan, dec_ttl, set_field by field, output; output and drop share the
// last slot, and a later write to a slot replaces the earlier one.
func TestActionSetSpecOrder(t *testing.T) {
	spec := []Action{PopVLAN(), PushVLAN(7), DecTTL(), SetField(FieldVLANID, 5), SetField(FieldIPDst, 9), Output(1), Drop()}
	slot := []int{0, 1, 2, 3, 4, 5, 5}
	for i, a := range spec {
		for j, b := range spec {
			p := tcpPacket(t, 1, 1, 2, 3, 4)
			var v Verdict
			var set ActionList
			t0 := Instructions{WriteActions: ActionList{a}, GotoTable: 1, HasGoto: true}
			t1 := Instructions{WriteActions: ActionList{b}, GotoTable: 2, HasGoto: true}
			t0.Execute(p, &v, &set, 4, 0)
			t1.Execute(p, &v, &set, 4, 1)
			want := ActionList{a, b}
			switch {
			case slot[i] == slot[j]:
				want = ActionList{b}
			case slot[i] > slot[j]:
				want = ActionList{b, a}
			}
			if !set.Equal(want) {
				t.Errorf("%s then %s: set %s, want %s", a, b, set, want)
			}
		}
	}

	// The set runs in that order: a VLAN ID written before the push that
	// would reset it survives the push.
	pl := NewPipeline(2)
	pl.Table(0).AddFlow(1, NewMatch(), Instructions{WriteActions: ActionList{SetField(FieldVLANID, 5)}, GotoTable: 1, HasGoto: true})
	pl.AddTable(1).AddFlow(1, NewMatch(), Instructions{WriteActions: ActionList{PushVLAN(0), Output(2)}})
	p := tcpPacket(t, 1, 1, 2, 3, 4)
	var v Verdict
	NewInterpreter(pl).processParsed(p, &v, nil)
	if !p.Headers.Has(pkt.ProtoVLAN) || p.Headers.VLANID != 5 || len(v.OutPorts) != 1 {
		t.Fatalf("set_field(vlan_vid=5) then push_vlan:0 left VLAN %v/%d, verdict %s", p.Headers.Has(pkt.ProtoVLAN), p.Headers.VLANID, &v)
	}
}

// FuzzActionSetMerge merges random write lists into an action set table by
// table, with clears, and checks the set after every table against a per-slot
// reference: one action per slot, the last write winning, in slot order.
// Each input byte is one operation: its high nibble picks a write kind (or
// the end of a table, or a clear-actions), its low nibble the value.
func FuzzActionSetMerge(f *testing.F) {
	f.Add([]byte{0x35, 0x10, 0xc0, 0x00, 0x81, 0xb0, 0xc0, 0x20, 0x36, 0xd0, 0x95})
	f.Add([]byte{0x81, 0x82, 0xb0, 0x91, 0xa0, 0xc0, 0x47, 0x37, 0x73, 0x5a, 0x6b, 0xc0, 0x12, 0x00})
	// refSlot is the spec's slot order, written out independently of
	// actionSlot.
	refSlot := func(a Action) int {
		switch a.Type {
		case ActionPopVLAN:
			return 0
		case ActionPushVLAN:
			return 1
		case ActionDecTTL:
			return 2
		case ActionSetField:
			return 100 + int(a.Field)
		default:
			return 1000
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var set, writes ActionList
		ref := map[int]Action{}
		endTable := func() {
			set = set.Merge(writes)
			for _, w := range writes {
				ref[refSlot(w)] = w
			}
			writes = writes[:0]
			slots := make([]int, 0, len(ref))
			for s := range ref {
				slots = append(slots, s)
			}
			sort.Ints(slots)
			want := make(ActionList, len(slots))
			for i, s := range slots {
				want[i] = ref[s]
			}
			if !set.Equal(want) {
				t.Fatalf("set %s, reference %s", set, want)
			}
		}
		for _, op := range ops {
			v := uint64(op & 0xf)
			switch op >> 4 {
			case 0:
				writes = append(writes, PopVLAN())
			case 1:
				writes = append(writes, PushVLAN(uint16(v)))
			case 2:
				writes = append(writes, DecTTL())
			case 3:
				writes = append(writes, SetField(FieldVLANID, v))
			case 4:
				writes = append(writes, SetField(FieldIPDst, v))
			case 5:
				writes = append(writes, SetField(FieldEthSrc, v))
			case 6:
				writes = append(writes, SetField(FieldIPDSCP, v))
			case 7:
				writes = append(writes, SetField(FieldMetadata, v))
			case 8:
				writes = append(writes, Output(uint32(v+1)))
			case 9:
				writes = append(writes, ToController())
			case 10:
				writes = append(writes, Flood())
			case 11:
				writes = append(writes, Drop())
			case 12:
				endTable()
			default:
				endTable()
				set, ref = set[:0], map[int]Action{}
			}
		}
		endTable()
	})
}

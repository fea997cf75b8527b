package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// progAlphabet is the action alphabet of the action-program differential:
// set-field on every field (metadata and the three L4 aliases included), two
// VLAN pushes and a pop, dec_ttl, outputs to port 0, port 1, PortMax,
// PortMax+1, the controller, flood and table, and an explicit drop.
func progAlphabet() openflow.ActionList {
	var l openflow.ActionList
	for f := openflow.Field(0); f < openflow.NumFields; f++ {
		l = append(l, openflow.SetField(f, 0x0123456789abcdef))
	}
	return append(l,
		openflow.PushVLAN(100), openflow.PushVLAN(200), openflow.PopVLAN(), openflow.DecTTL(),
		openflow.Output(0), openflow.Output(1), openflow.Output(openflow.PortMax), openflow.Output(openflow.PortMax+1),
		openflow.ToController(), openflow.Flood(), openflow.Output(openflow.PortTable), openflow.Drop())
}

// progVariants is how many instruction sets progInstructions makes of one
// apply list: goto or none, times a metadata write or none, times
// write-actions, clear-actions or neither.
const progVariants = 12

func progInstructions(list openflow.ActionList, variant int) openflow.Instructions {
	ins := openflow.Instructions{ApplyActions: list}
	if variant&1 != 0 {
		ins.GotoTable, ins.HasGoto = 2, true
	}
	if variant&2 != 0 {
		ins.WriteMetadata, ins.MetadataMask = 0xa5a5, 0x0ff0
	}
	switch variant >> 2 % 3 {
	case 1:
		ins.WriteActions = openflow.ActionList{openflow.Output(2)}
	case 2:
		ins.ClearActions = true
	}
	return ins
}

// progFrames are the parsed frames the differential runs on: untagged and
// tagged, each as IPv4/TCP with TTL 0, 1 and 64 and as ARP.
func progFrames() []pkt.Packet {
	var frames []pkt.Packet
	for _, tagged := range []bool{false, true} {
		for _, ttl := range []int{0, 1, 64, -1} {
			h := pkt.Headers{Proto: pkt.ProtoEthernet | pkt.ProtoIPv4 | pkt.ProtoTCP, Parsed: pkt.LayerL4,
				EthDst: pkt.MACFromUint64(0x020000000001), EthSrc: pkt.MACFromUint64(0x020000000002), EthType: 0x0800,
				IPSrc: 0x0a000001, IPDst: 0x0a000002, IPProto: 6, IPDSCP: 12, IPTTL: uint8(ttl), L4Src: 1234, L4Dst: 80}
			if ttl < 0 {
				h = pkt.Headers{Proto: pkt.ProtoEthernet | pkt.ProtoARP, Parsed: pkt.LayerL4,
					EthDst: pkt.MACFromUint64(0xffffffffffff), EthSrc: pkt.MACFromUint64(0x020000000002), EthType: 0x0806}
			}
			if tagged {
				h.Proto |= pkt.ProtoVLAN
				h.VLANID, h.VLANPCP = 300, 3
			}
			frames = append(frames, pkt.Packet{InPort: 1, Metadata: 0x1234, Headers: h})
		}
	}
	return frames
}

// progStart is a state an entry's instructions can start from: the verdict
// the walk has built so far and the action set it has accumulated.
type progStart struct {
	name string
	v    openflow.Verdict
	set  openflow.ActionList
}

func progStarts() []progStart {
	fresh := openflow.Verdict{}
	forwarded := openflow.Verdict{OutPorts: []uint32{7}, Tables: 1}
	punted := openflow.Verdict{ToController: true, PuntReason: openflow.PuntAction, PuntTable: 1, Tables: 1}
	set := openflow.ActionList{openflow.SetField(openflow.FieldIPDst, 9), openflow.Output(3)}
	return []progStart{
		{"fresh", fresh, nil}, {"forwarded", forwarded, nil}, {"punted", punted, nil},
		{"fresh+set", fresh, set}, {"forwarded+set", forwarded, set}, {"punted+set", punted, set},
	}
}

// refusedShape names why the program compiler must refuse ins, or returns ""
// where it must accept it.
func refusedShape(ins *openflow.Instructions) string {
	if ins.ClearActions {
		return "clear-actions"
	}
	if len(ins.WriteActions) > 0 {
		return "write-actions"
	}
	outputs := 0
	for i, a := range ins.ApplyActions {
		switch {
		case a.Type == openflow.ActionDrop:
			if i > 0 {
				return "drop after other actions"
			}
			return "" // nothing after a leading drop runs
		case a.Type == openflow.ActionSetField && a.Field == openflow.FieldMetadata:
			return "set-field on metadata"
		case a.Type == openflow.ActionOutput:
			outputs++
			switch {
			case a.Port == openflow.PortFlood:
				return "flood"
			case a.Port == openflow.PortTable:
				return "output:TABLE"
			case a.Port == 0, a.Port > openflow.PortMax && a.Port != openflow.PortController:
				return "port out of range"
			}
		}
	}
	if outputs > 1 {
		return "two outputs"
	}
	if outputs == 1 && ins.HasGoto {
		return "output with goto"
	}
	return ""
}

// checkActionProgram compiles ins and checks that the compiler refuses it
// exactly where refusedShape says so.  Where it accepts it, the burst
// engine's step — the program's run on an empty action set, Execute on any
// other — must leave what Execute leaves: the whole verdict, the headers, the
// metadata and the returned step, from every starting state on every frame.
// It reports whether the set was accepted.
func checkActionProgram(t testing.TB, ins *openflow.Instructions, frames []pkt.Packet, starts []progStart) bool {
	t.Helper()
	prog := compileProgram(ins)
	if why := refusedShape(ins); prog.generic != (why != "") {
		t.Fatalf("%+v: compiled generic=%v, want refused %q", *ins, prog.generic, why)
	}
	if prog.generic {
		return false
	}
	const table = 3
	for _, st := range starts {
		for _, frame := range frames {
			want, got := frame, frame
			wv, gv := st.v, st.v
			wv.OutPorts, gv.OutPorts = slices.Clone(st.v.OutPorts), slices.Clone(st.v.OutPorts)
			wset, gset := slices.Clone(st.set), slices.Clone(st.set)
			wstep := ins.Execute(&want, &wv, &wset, 4, table)
			var gstep openflow.Step
			if len(gset) > 0 {
				gstep = ins.Execute(&got, &gv, &gset, 4, table)
			} else {
				gstep = prog.run(&got, &gv, table)
			}
			if gstep != wstep || !identicalVerdict(&gv, &wv) || got.Headers != want.Headers || got.Metadata != want.Metadata {
				t.Fatalf("%+v from %s on %+v:\nrun     step %d verdict %+v headers %+v metadata %#x\n"+
					"Execute step %d verdict %+v headers %+v metadata %#x",
					*ins, st.name, frame.Headers, gstep, gv, got.Headers, got.Metadata, wstep, wv, want.Headers, want.Metadata)
			}
		}
	}
	return true
}

// identicalVerdict compares every field of two verdicts, the punt
// attribution included.
func identicalVerdict(a, b *openflow.Verdict) bool {
	x, y := *a, *b
	x.OutPorts, y.OutPorts = nil, nil
	return reflect.DeepEqual(x, y) && slices.Equal(a.OutPorts, b.OutPorts)
}

// TestActionProgramMatchesExecute is the action program's differential:
// every pair of actions of progAlphabet and a seeded sample of triples, each
// crossed with goto, a metadata write and write/clear-actions, from a fresh,
// a forwarded and a punted verdict, on tagged, untagged, ARP and TTL 0/1/64
// frames.
func TestActionProgramMatchesExecute(t *testing.T) {
	alpha, frames, starts := progAlphabet(), progFrames(), progStarts()
	accepted, total := 0, 0
	check := func(list openflow.ActionList) {
		for variant := 0; variant < progVariants; variant++ {
			ins := progInstructions(list, variant)
			if checkActionProgram(t, &ins, frames, starts) {
				accepted++
			}
			total++
		}
	}
	check(nil)
	for _, a := range alpha {
		check(openflow.ActionList{a})
		for _, b := range alpha {
			check(openflow.ActionList{a, b})
		}
	}
	rng := rand.New(rand.NewSource(44))
	for n := 0; n < 2000; n++ {
		check(openflow.ActionList{alpha[rng.Intn(len(alpha))], alpha[rng.Intn(len(alpha))], alpha[rng.Intn(len(alpha))]})
	}
	if accepted == 0 || accepted == total {
		t.Fatalf("the compiler accepted %d of %d sets: the differential compares nothing or refuses nothing", accepted, total)
	}

	// The shapes the program cannot express, and a few it can, by name.
	o := openflow.Output
	refused := map[string]openflow.Instructions{
		"write-actions":            {ApplyActions: openflow.ActionList{o(1)}, WriteActions: openflow.ActionList{o(2)}},
		"clear-actions":            {ClearActions: true, GotoTable: 1, HasGoto: true},
		"set-field on metadata":    openflow.Apply(openflow.SetField(openflow.FieldMetadata, 1), o(1)),
		"flood":                    openflow.Apply(openflow.Flood()),
		"output:TABLE":             openflow.Apply(o(openflow.PortTable)),
		"port 0":                   openflow.Apply(o(0)),
		"port above PortMax":       openflow.Apply(o(openflow.PortMax + 1)),
		"two outputs":              openflow.Apply(o(1), o(2)),
		"output and controller":    openflow.Apply(o(1), openflow.ToController()),
		"output with goto":         openflow.ApplyThenGoto(1, o(1)),
		"controller with goto":     openflow.ApplyThenGoto(1, openflow.ToController()),
		"drop after other actions": openflow.Apply(openflow.DecTTL(), openflow.Drop()),
	}
	for name, ins := range refused {
		if !compileProgram(&ins).generic {
			t.Errorf("%s (%+v): compiled, want generic", name, ins)
		}
	}
	compiled := map[string]openflow.Instructions{
		"output":             openflow.Apply(o(3)),
		"lone drop":          openflow.Apply(openflow.Drop()),
		"drop first":         openflow.Apply(openflow.Drop(), o(1)),
		"route":              openflow.Apply(openflow.DecTTL(), o(4)),
		"punt":               openflow.Apply(openflow.SetField(openflow.FieldIPDst, 1), openflow.ToController()),
		"rewrite then goto":  openflow.ApplyThenGoto(2, openflow.SetField(openflow.FieldIPSrc, 1), openflow.PopVLAN()),
		"goto with metadata": {GotoTable: 1, HasGoto: true, WriteMetadata: 5, MetadataMask: 0xff},
		"empty":              {},
	}
	for name, ins := range compiled {
		if !checkActionProgram(t, &ins, frames, starts) {
			t.Errorf("%s (%+v): generic, want compiled", name, ins)
		}
	}
}

// FuzzActionProgram is TestActionProgramMatchesExecute's comparison over
// fuzzed apply lists: each byte picks an action of progAlphabet, and a byte
// of 0x80 or above gives an output the fuzzed port and a set-field the
// fuzzed value.
func FuzzActionProgram(f *testing.F) {
	alpha, frames, starts := progAlphabet(), progFrames(), progStarts()
	f.Fuzz(func(t *testing.T, actions []byte, port uint32, value uint64, variant uint8) {
		if len(actions) > 4 {
			actions = actions[:4]
		}
		var list openflow.ActionList
		for _, b := range actions {
			a := alpha[int(b)%len(alpha)]
			if b >= 0x80 {
				switch a.Type {
				case openflow.ActionOutput:
					a.Port = port
				case openflow.ActionSetField:
					a = openflow.SetField(a.Field, value)
				}
			}
			list = append(list, a)
		}
		ins := progInstructions(list, int(variant)%progVariants)
		checkActionProgram(t, &ins, frames, starts)
	})
}

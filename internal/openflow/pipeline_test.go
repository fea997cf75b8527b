package openflow

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"eswitch/internal/pkt"
)

// firewallSingleStage builds the single-table firewall of Fig. 1a: packets
// from the internal port (2) go out the external port (1) unconditionally;
// packets from the external port are admitted only towards the web server's
// HTTP port; everything else is dropped.
func firewallSingleStage() *Pipeline {
	pl := NewPipeline(2)
	t0 := pl.Table(0)
	webServer := uint64(pkt.IPv4FromOctets(192, 0, 2, 1))
	t0.AddFlow(300, NewMatch().Set(FieldInPort, 2), Apply(Output(1)))
	t0.AddFlow(200, NewMatch().Set(FieldInPort, 1).Set(FieldIPDst, webServer).Set(FieldTCPDst, 80), Apply(Output(2)))
	t0.AddFlow(100, NewMatch(), Apply(Drop()))
	return pl
}

// firewallMultiStage builds the equivalent two-table pipeline of Fig. 1b.
func firewallMultiStage() *Pipeline {
	pl := NewPipeline(2)
	t0 := pl.Table(0)
	t0.AddFlow(300, NewMatch().Set(FieldInPort, 2), Apply(Output(1)))
	t0.AddFlow(200, NewMatch().Set(FieldInPort, 1), Goto(1))
	t0.AddFlow(100, NewMatch(), Apply(Drop()))
	t1 := pl.AddTable(1)
	webServer := uint64(pkt.IPv4FromOctets(192, 0, 2, 1))
	t1.AddFlow(200, NewMatch().Set(FieldIPDst, webServer).Set(FieldTCPDst, 80), Apply(Output(2)))
	t1.AddFlow(100, NewMatch(), Apply(Drop()))
	return pl
}

func process(t *testing.T, pl *Pipeline, p *pkt.Packet) *Verdict {
	t.Helper()
	in := NewInterpreter(pl)
	v := &Verdict{}
	in.Process(p, v, nil)
	return v
}

func TestFirewallSingleStage(t *testing.T) {
	pl := firewallSingleStage()
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	web := pkt.IPv4FromOctets(192, 0, 2, 1)

	// Internal -> external: forwarded to port 1.
	v := process(t, pl, tcpPacket(t, 2, web, pkt.IPv4FromOctets(198, 51, 100, 1), 80, 31000))
	if !v.Forwarded() || v.OutPorts[0] != 1 {
		t.Fatalf("internal traffic: %v", v)
	}
	// External HTTP towards the web server: forwarded to port 2.
	v = process(t, pl, tcpPacket(t, 1, pkt.IPv4FromOctets(198, 51, 100, 1), web, 31000, 80))
	if !v.Forwarded() || v.OutPorts[0] != 2 {
		t.Fatalf("external web traffic: %v", v)
	}
	// External SSH: dropped.
	v = process(t, pl, tcpPacket(t, 1, pkt.IPv4FromOctets(198, 51, 100, 1), web, 31000, 22))
	if !v.Dropped || v.Forwarded() {
		t.Fatalf("external ssh traffic: %v", v)
	}
}

// TestFirewallEquivalence checks that the single-stage and multi-stage
// firewall pipelines of Fig. 1 are observationally equivalent over a sweep of
// traffic (the paper's premise that pipelines can be restructured without
// changing semantics).
func TestFirewallEquivalence(t *testing.T) {
	a, b := firewallSingleStage(), firewallMultiStage()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	web := pkt.IPv4FromOctets(192, 0, 2, 1)
	ports := []uint16{22, 80, 443, 8080}
	for inPort := uint32(1); inPort <= 2; inPort++ {
		for _, dstIP := range []pkt.IPv4{web, pkt.IPv4FromOctets(192, 0, 2, 2)} {
			for _, dport := range ports {
				p1 := tcpPacket(t, inPort, pkt.IPv4FromOctets(198, 51, 100, 7), dstIP, 30000, dport)
				p2 := tcpPacket(t, inPort, pkt.IPv4FromOctets(198, 51, 100, 7), dstIP, 30000, dport)
				v1, v2 := process(t, a, p1), process(t, b, p2)
				if !v1.Equivalent(v2) {
					t.Fatalf("in_port=%d ip_dst=%v tcp_dst=%d: single=%v multi=%v", inPort, dstIP, dport, v1, v2)
				}
			}
		}
	}
}

func TestTableMissBehaviour(t *testing.T) {
	pl := NewPipeline(2)
	pl.Table(0).AddFlow(100, NewMatch().Set(FieldInPort, 7), Apply(Output(1)))
	p := tcpPacket(t, 1, 1, 2, 3, 4)
	v := process(t, pl, p)
	if !v.TableMiss || !v.Dropped {
		t.Fatalf("MissDrop: %v", v)
	}
	pl.Miss = MissController
	v = process(t, pl, tcpPacket(t, 1, 1, 2, 3, 4))
	if !v.TableMiss || !v.ToController {
		t.Fatalf("MissController: %v", v)
	}
}

func TestGotoAndMetadata(t *testing.T) {
	pl := NewPipeline(2)
	t0 := pl.Table(0)
	t0.AddFlow(100, NewMatch().Set(FieldInPort, 1), Instructions{
		WriteMetadata: 0xaa, MetadataMask: 0xff, GotoTable: 1, HasGoto: true,
	})
	t1 := pl.AddTable(1)
	t1.AddFlow(100, NewMatch().Set(FieldMetadata, 0xaa), Apply(Output(9)))
	t1.AddFlow(50, NewMatch(), Apply(Drop()))
	v := process(t, pl, tcpPacket(t, 1, 1, 2, 3, 4))
	if !v.Forwarded() || v.OutPorts[0] != 9 {
		t.Fatalf("metadata pipeline: %v", v)
	}
	if v.Tables != 2 {
		t.Fatalf("tables traversed: %d", v.Tables)
	}
}

func TestWriteActionsActionSet(t *testing.T) {
	pl := NewPipeline(4)
	t0 := pl.Table(0)
	t0.AddFlow(10, NewMatch(), Instructions{
		WriteActions: ActionList{Output(1)}, GotoTable: 1, HasGoto: true,
	})
	t1 := pl.AddTable(1)
	// Overwrite the output in the action set; the final output must be 2.
	t1.AddFlow(10, NewMatch(), Instructions{WriteActions: ActionList{Output(2)}})
	v := process(t, pl, tcpPacket(t, 3, 1, 2, 3, 4))
	if len(v.OutPorts) != 1 || v.OutPorts[0] != 2 {
		t.Fatalf("action set merge: %v", v)
	}
	// ClearActions must drop the pending output.
	pl2 := NewPipeline(4)
	pl2.Table(0).AddFlow(10, NewMatch(), Instructions{
		WriteActions: ActionList{Output(1)}, GotoTable: 1, HasGoto: true,
	})
	pl2.AddTable(1).AddFlow(10, NewMatch(), Instructions{ClearActions: true})
	v = process(t, pl2, tcpPacket(t, 3, 1, 2, 3, 4))
	if v.Forwarded() || !v.Dropped {
		t.Fatalf("clear actions: %v", v)
	}
}

func TestFloodAction(t *testing.T) {
	pl := NewPipeline(4)
	pl.Table(0).AddFlow(10, NewMatch(), Apply(Flood()))
	v := process(t, pl, tcpPacket(t, 2, 1, 2, 3, 4))
	if len(v.OutPorts) != 3 {
		t.Fatalf("flood out ports: %v", v.OutPorts)
	}
	for _, port := range v.OutPorts {
		if port == 2 {
			t.Fatal("flood must not include the ingress port")
		}
	}
}

func TestSetFieldAndVLANActions(t *testing.T) {
	pl := NewPipeline(2)
	pl.Table(0).AddFlow(10, NewMatch(), Apply(
		SetField(FieldIPSrc, uint64(pkt.IPv4FromOctets(203, 0, 113, 99))),
		PushVLAN(100),
		DecTTL(),
		Output(1),
	))
	p := tcpPacket(t, 2, pkt.IPv4FromOctets(10, 0, 0, 1), 2, 3, 4)
	ttlBefore := p.Headers.IPTTL
	v := process(t, pl, p)
	if !v.Forwarded() || !v.Modified {
		t.Fatalf("verdict %v", v)
	}
	if p.Headers.IPSrc != pkt.IPv4FromOctets(203, 0, 113, 99) {
		t.Fatalf("ip_src not rewritten: %v", p.Headers.IPSrc)
	}
	if !p.Headers.Has(pkt.ProtoVLAN) || p.Headers.VLANID != 100 {
		t.Fatalf("vlan not pushed: %v %d", p.Headers.Proto, p.Headers.VLANID)
	}
	if p.Headers.IPTTL != ttlBefore-1 {
		t.Fatalf("ttl not decremented: %d -> %d", ttlBefore, p.Headers.IPTTL)
	}
	// Pop the VLAN back off.
	pl2 := NewPipeline(2)
	pl2.Table(0).AddFlow(10, NewMatch(), Apply(PopVLAN(), Output(1)))
	v = process(t, pl2, p)
	if p.Headers.Has(pkt.ProtoVLAN) {
		t.Fatal("vlan not popped")
	}
	_ = v
}

func TestPriorityOrderingAndReplace(t *testing.T) {
	ft := NewFlowTable(0)
	ft.AddFlow(10, NewMatch().Set(FieldTCPDst, 80), Apply(Output(1)))
	ft.AddFlow(20, NewMatch().Set(FieldTCPDst, 80), Apply(Output(2)))
	ft.AddFlow(15, NewMatch(), Apply(Output(3)))
	if ft.Len() != 3 {
		t.Fatalf("len %d", ft.Len())
	}
	entries := ft.Entries()
	if entries[0].Priority != 20 || entries[1].Priority != 15 || entries[2].Priority != 10 {
		t.Fatalf("priority order: %v %v %v", entries[0].Priority, entries[1].Priority, entries[2].Priority)
	}
	// Adding an identical match+priority replaces in place.
	added := ft.Add(NewEntry(20, NewMatch().Set(FieldTCPDst, 80), Apply(Output(9))))
	if added || ft.Len() != 3 {
		t.Fatalf("replace semantics: added=%v len=%d", added, ft.Len())
	}
	p := tcpPacket(t, 1, 1, 2, 3, 80)
	e := ft.Lookup(p, nil)
	if e == nil || e.Instructions.ApplyActions[0].Port != 9 {
		t.Fatalf("lookup after replace: %v", e)
	}
}

func TestEqualPriorityStableOrder(t *testing.T) {
	ft := NewFlowTable(0)
	ft.AddFlow(10, NewMatch().Set(FieldIPDst, 1), Apply(Output(1)))
	ft.AddFlow(10, NewMatch(), Apply(Output(2)))
	// A packet matching both must hit the first-inserted entry.
	p := tcpPacket(t, 1, 5, 1, 3, 80)
	if e := ft.Lookup(p, nil); e == nil || e.Instructions.ApplyActions[0].Port != 1 {
		t.Fatalf("stable order violated: %v", e)
	}
}

func TestDeleteEntries(t *testing.T) {
	ft := NewFlowTable(0)
	ft.AddFlow(10, NewMatch().Set(FieldTCPDst, 80), Apply(Output(1)))
	ft.AddFlow(20, NewMatch().Set(FieldTCPDst, 80), Apply(Output(2)))
	ft.AddFlow(30, NewMatch().Set(FieldTCPDst, 443), Apply(Output(3)))
	if n := ft.Delete(NewMatch().Set(FieldTCPDst, 80), 10); n != 1 || ft.Len() != 2 {
		t.Fatalf("delete with priority: removed %d len %d", n, ft.Len())
	}
	if n := ft.Delete(NewMatch().Set(FieldTCPDst, 80), -1); n != 1 || ft.Len() != 1 {
		t.Fatalf("delete any priority: removed %d len %d", n, ft.Len())
	}
	if n := ft.DeleteWhere(func(e *FlowEntry) bool { return e.Priority == 30 }); n != 1 || ft.Len() != 0 {
		t.Fatalf("delete where: removed %d len %d", n, ft.Len())
	}
}

// TestTableOrderAfterInterleavedMods drives a 10k-entry table with a seeded
// mix of adds, replaces and all three delete forms and, after every step,
// compares its entry order with a naive model sorted by (priority desc,
// first-insertion order) — the order Lookup depends on.
func TestTableOrderAfterInterleavedMods(t *testing.T) {
	type modelEntry struct {
		e     *FlowEntry
		birth int
	}
	rng := rand.New(rand.NewSource(14))
	ft := NewFlowTable(0)
	model := make(map[string]*modelEntry)
	births := 0
	keyOf := func(prio int, m *Match) string { return fmt.Sprintf("%d/%s", prio, m) }
	randMatch := func() *Match { return NewMatch().Set(FieldIPDst, uint64(rng.Intn(6000))) }
	check := func(step int) {
		t.Helper()
		want := make([]*modelEntry, 0, len(model))
		for _, me := range model {
			want = append(want, me)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].e.Priority != want[j].e.Priority {
				return want[i].e.Priority > want[j].e.Priority
			}
			return want[i].birth < want[j].birth
		})
		got := ft.Entries()
		if len(got) != len(want) {
			t.Fatalf("step %d: table has %d entries, model %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].e {
				t.Fatalf("step %d: position %d holds %v, model says %v", step, i, got[i], want[i].e)
			}
		}
	}
	add := func() {
		e := NewEntry(rng.Intn(8), randMatch(), Apply(Output(uint32(1+rng.Intn(4)))))
		me := model[keyOf(e.Priority, e.Match)]
		if added := ft.Add(e); added != (me == nil) {
			t.Fatalf("Add(%v) reported added=%v, model has it: %v", e, added, me != nil)
		}
		if me != nil {
			me.e = e // a replace keeps the slot
		} else {
			model[keyOf(e.Priority, e.Match)] = &modelEntry{e: e, birth: births}
			births++
		}
		if ft.Entry(e.Priority, e.Match) == nil {
			t.Fatalf("Entry(%v) nil right after Add", e)
		}
	}
	// deleteIf removes from the model what pred selects and returns the count.
	deleteIf := func(pred func(*FlowEntry) bool) int {
		n := 0
		for k, me := range model {
			if pred(me.e) {
				delete(model, k)
				n++
			}
		}
		return n
	}
	for len(model) < 10000 {
		add()
	}
	check(-1)
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			add()
		case r < 8: // priority-qualified delete, mostly of a present entry
			prio, m := rng.Intn(8), randMatch()
			want := 0
			if model[keyOf(prio, m)] != nil {
				want = 1
				delete(model, keyOf(prio, m))
			}
			if n := ft.Delete(m, prio); n != want {
				t.Fatalf("step %d: Delete(%v, %d) removed %d, want %d", step, m, prio, n, want)
			}
			if ft.Entry(prio, m) != nil {
				t.Fatalf("step %d: Entry found after Delete", step)
			}
		case r < 9: // any-priority delete
			m := randMatch()
			want := deleteIf(func(e *FlowEntry) bool { return e.Match.Equal(m) })
			if n := ft.Delete(m, -1); n != want {
				t.Fatalf("step %d: Delete(%v, -1) removed %d, want %d", step, m, n, want)
			}
		default:
			port, rem := uint32(1+rng.Intn(4)), uint64(rng.Intn(97))
			pred := func(e *FlowEntry) bool {
				v, _, _ := e.Match.Get(FieldIPDst)
				return v%97 == rem && e.Instructions.ApplyActions[0].Port == port
			}
			want := deleteIf(pred)
			if n := ft.DeleteWhere(pred); n != want {
				t.Fatalf("step %d: DeleteWhere removed %d, want %d", step, n, want)
			}
		}
		check(step)
	}
}

func TestCountersUpdated(t *testing.T) {
	pl := NewPipeline(2)
	e := pl.Table(0).AddFlow(10, NewMatch(), Apply(Output(1)))
	in := NewInterpreter(pl)
	v := &Verdict{}
	p := tcpPacket(t, 1, 1, 2, 3, 4)
	for i := 0; i < 5; i++ {
		in.Process(p, v, nil)
	}
	if e.Counters.Packets.Load() != 5 {
		t.Fatalf("packet counter %d", e.Counters.Packets.Load())
	}
	if e.Counters.Bytes.Load() != uint64(5*len(p.Data)) {
		t.Fatalf("byte counter %d", e.Counters.Bytes.Load())
	}
}

func TestPipelineValidate(t *testing.T) {
	pl := NewPipeline(2)
	pl.Table(0).AddFlow(10, NewMatch(), Goto(5))
	if err := pl.Validate(); err == nil {
		t.Fatal("missing goto target must fail validation")
	}
	pl.AddTable(5)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cycles in the goto graph are rejected; an acyclic backward jump (as
	// produced by internal table decomposition) is fine.
	pl2 := NewPipeline(2)
	pl2.AddTable(3).AddFlow(10, NewMatch(), Goto(1))
	pl2.AddTable(1)
	if err := pl2.Validate(); err != nil {
		t.Fatalf("acyclic backward goto must validate: %v", err)
	}
	pl2.Table(1).AddFlow(10, NewMatch(), Goto(3))
	if err := pl2.Validate(); err == nil {
		t.Fatal("goto cycle must fail validation")
	}
}

func TestPipelineCloneIsDeep(t *testing.T) {
	pl := firewallMultiStage()
	c := pl.Clone()
	pl.Table(0).AddFlow(999, NewMatch().Set(FieldInPort, 9), Apply(Output(9)))
	if c.Table(0).Len() == pl.Table(0).Len() {
		t.Fatal("clone shares entry storage")
	}
	if c.NumTables() != pl.NumTables() {
		t.Fatal("clone table count mismatch")
	}
}

func TestPipelineTableManagement(t *testing.T) {
	pl := NewPipeline(2)
	pl.AddTable(4)
	pl.AddTable(2)
	ids := pl.TableIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 2 || ids[2] != 4 {
		t.Fatalf("table ids %v", ids)
	}
	if pl.NextFreeTableID() != 5 {
		t.Fatalf("next free %d", pl.NextFreeTableID())
	}
}

func TestPipelineRequiredLayer(t *testing.T) {
	pl := NewPipeline(2)
	pl.Table(0).AddFlow(10, NewMatch().Set(FieldEthDst, 1), Apply(Output(1)))
	if pl.RequiredLayer() != pkt.LayerL2 {
		t.Fatalf("L2-only pipeline requires %v", pl.RequiredLayer())
	}
	pl.Table(0).AddFlow(20, NewMatch().Set(FieldTCPDst, 80), Apply(Output(2)))
	if pl.RequiredLayer() != pkt.LayerL4 {
		t.Fatalf("pipeline with tcp_dst requires %v", pl.RequiredLayer())
	}
}

func TestStringRendering(t *testing.T) {
	pl := firewallMultiStage()
	s := pl.String()
	for _, want := range []string{"table=0", "table=1", "goto_table:1", "priority=300", "tcp_dst=80"} {
		if !strings.Contains(s, want) {
			t.Errorf("pipeline string missing %q:\n%s", want, s)
		}
	}
	a := Apply(Output(3), SetField(FieldVLANID, 5))
	if got := a.String(); !strings.Contains(got, "output:3") || !strings.Contains(got, "set_field:vlan_vid=5") {
		t.Errorf("instruction string %q", got)
	}
	if Drop().String() != "drop" || ToController().String() != "controller" || Flood().String() != "flood" {
		t.Error("action string rendering broken")
	}
	if (ActionList{}).String() != "drop" {
		t.Error("empty action list should render as drop")
	}
	v := &Verdict{}
	if v.String() != "drop" {
		t.Errorf("verdict %q", v)
	}
	v.OutPorts = append(v.OutPorts, 4)
	if v.String() != "output:4" {
		t.Errorf("verdict %q", v)
	}
}

func TestInstructionsEqualAndClone(t *testing.T) {
	a := ApplyThenGoto(3, Output(1))
	b := ApplyThenGoto(3, Output(1))
	if !a.Equal(b) {
		t.Fatal("equal instructions not equal")
	}
	c := a.Clone()
	c.ApplyActions[0] = Output(9)
	if a.ApplyActions[0].Port != 1 {
		t.Fatal("clone aliases apply actions")
	}
	if a.Equal(Apply(Output(1))) {
		t.Fatal("goto vs terminal instructions must differ")
	}
}

func TestActionListKeySharing(t *testing.T) {
	a := ActionList{Output(1), SetField(FieldVLANID, 5)}
	b := ActionList{Output(1), SetField(FieldVLANID, 5)}
	c := ActionList{Output(2)}
	key := func(l ActionList) string { return string(l.appendKey(nil)) }
	if key(a) != key(b) || key(a) == key(c) {
		t.Fatal("action list keys broken")
	}
}

func BenchmarkInterpreterFirewall(b *testing.B) {
	pl := firewallSingleStage()
	in := NewInterpreter(pl)
	in.UpdateCounters = false
	p := tcpPacket(b, 1, pkt.IPv4FromOctets(198, 51, 100, 1), pkt.IPv4FromOctets(192, 0, 2, 1), 31000, 80)
	v := &Verdict{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.processParsed(p, v, nil)
	}
}

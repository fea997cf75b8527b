package core

import (
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

func tcpPacket(tb testing.TB, inPort uint32, src, dst pkt.IPv4, sport, dport uint16) *pkt.Packet {
	tb.Helper()
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(
		pkt.EthernetOpts{Dst: pkt.MACFromUint64(0xa), Src: pkt.MACFromUint64(0xb)},
		pkt.IPv4Opts{Src: src, Dst: dst},
		pkt.L4Opts{Src: sport, Dst: dport},
	))
	return &pkt.Packet{Data: frame, InPort: inPort}
}

func udpVlanPacket(tb testing.TB, inPort uint32, vlan uint16, src, dst pkt.IPv4, sport, dport uint16) *pkt.Packet {
	tb.Helper()
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.UDPPacket(
		pkt.EthernetOpts{Dst: pkt.MACFromUint64(0xa), Src: pkt.MACFromUint64(0xb), VLAN: vlan},
		pkt.IPv4Opts{Src: src, Dst: dst},
		pkt.L4Opts{Src: sport, Dst: dport},
	))
	return &pkt.Packet{Data: frame, InPort: inPort}
}

func ethPacket(tb testing.TB, inPort uint32, dst, src pkt.MAC) *pkt.Packet {
	tb.Helper()
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{Dst: dst, Src: src, EtherType: 0x88b5}, nil))
	return &pkt.Packet{Data: frame, InPort: inPort}
}

// checkEquivalence sends the same traffic through the reference interpreter
// and the compiled datapath, requiring identical externally observable
// verdicts.
func checkEquivalence(t *testing.T, pl *openflow.Pipeline, opts Options, packets []*pkt.Packet) {
	t.Helper()
	dp, err := Compile(pl.Clone(), opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := openflow.NewInterpreter(pl)
	in.UpdateCounters = false
	for i, p := range packets {
		ref := clonePacket(p)
		got := clonePacket(p)
		var vRef, vGot openflow.Verdict
		in.Process(ref, &vRef, nil)
		dp.Process(got, &vGot)
		if !vRef.Equivalent(&vGot) {
			t.Fatalf("packet %d (in_port=%d %v): interpreter=%v eswitch=%v\npipeline:\n%s\nstages: %+v",
				i, p.InPort, p.Headers.Proto, vRef.String(), vGot.String(), pl, dp.Stages())
		}
	}
}

// agreesWithInterpreter requires the running datapath to give the
// interpreter's verdict, over the datapath's current declarative pipeline, on
// every packet.
func agreesWithInterpreter(t *testing.T, dp *Datapath, when string, packets ...*pkt.Packet) {
	t.Helper()
	in := openflow.NewInterpreter(dp.Pipeline())
	in.UpdateCounters = false
	for _, p := range packets {
		var vRef, vGot openflow.Verdict
		in.Process(clonePacket(p), &vRef, nil)
		dp.Process(clonePacket(p), &vGot)
		if !vRef.Equivalent(&vGot) {
			t.Fatalf("%s: interpreter=%v eswitch=%v", when, vRef.String(), vGot.String())
		}
	}
}

func clonePacket(p *pkt.Packet) *pkt.Packet {
	return &pkt.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort, Metadata: p.Metadata}
}

// --- Template selection -----------------------------------------------------

func TestAnalyzeDirectCodeForSmallTables(t *testing.T) {
	ft := openflow.NewFlowTable(0)
	for i := 0; i < 4; i++ {
		ft.AddFlow(10+i, openflow.NewMatch().Set(openflow.FieldTCPDst, uint64(i)), openflow.Apply(openflow.Output(1)))
	}
	a := analyzeTable(ft, DefaultOptions())
	if a.kind != TemplateDirectCode {
		t.Fatalf("small table: %v", a.kind)
	}
}

func TestAnalyzeHashTemplate(t *testing.T) {
	ft := openflow.NewFlowTable(0)
	for i := 0; i < 20; i++ {
		m := openflow.NewMatch().
			SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(192, 0, byte(i), 0)), 24).
			Set(openflow.FieldTCPDst, 80)
		ft.AddFlow(10, m, openflow.Apply(openflow.Output(uint32(i))))
	}
	a := analyzeTable(ft, DefaultOptions())
	if a.kind != TemplateHash {
		t.Fatalf("uniform-mask table should use the hash template, got %v", a.kind)
	}
	// An entry that wildcards tcp_dst breaks the global mask (the paper's
	// third-entry example in §3.1).  Below the band it lands in the
	// direct-code tail; above it, it would fix a band of its own, with the
	// 20 keyed entries left over for a tail far past DirectCodeMaxEntries,
	// so the table falls back from the hash template.
	mismatch := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(203, 0, 113, 0)), 24)
	ft.AddFlow(5, mismatch, openflow.Apply(openflow.Output(99)))
	if a = analyzeTable(ft, DefaultOptions()); a.kind != TemplateHash {
		t.Fatalf("mask mismatch below the band should land in the tail, got %v", a.kind)
	}
	ft.Delete(mismatch, 5)
	ft.AddFlow(15, mismatch, openflow.Apply(openflow.Output(99)))
	if a = analyzeTable(ft, DefaultOptions()); a.kind == TemplateHash {
		t.Fatal("mask mismatch above the band must fall back from the hash template")
	}
}

func TestAnalyzeHashAllowsLowestPriorityCatchAll(t *testing.T) {
	ft := openflow.NewFlowTable(0)
	for i := 0; i < 10; i++ {
		ft.AddFlow(100, openflow.NewMatch().Set(openflow.FieldEthDst, uint64(i+1)), openflow.Apply(openflow.Output(uint32(i+1))))
	}
	ft.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))
	a := analyzeTable(ft, DefaultOptions())
	if a.kind != TemplateHash {
		t.Fatalf("MAC table with catch-all should be hash, got %v", a.kind)
	}
	// A catch-all that outranks specific entries breaks the prerequisite.
	ft.AddFlow(500, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	if a := analyzeTable(ft, DefaultOptions()); a.kind == TemplateHash {
		t.Fatal("high-priority catch-all must not compile to hash")
	}
}

func TestAnalyzeLPMTemplate(t *testing.T) {
	ft := openflow.NewFlowTable(0)
	routes := []struct {
		addr pkt.IPv4
		plen int
	}{
		{pkt.IPv4FromOctets(10, 0, 0, 0), 8},
		{pkt.IPv4FromOctets(10, 1, 0, 0), 16},
		{pkt.IPv4FromOctets(192, 0, 2, 0), 24},
		{pkt.IPv4FromOctets(198, 51, 100, 0), 24},
		{pkt.IPv4FromOctets(203, 0, 113, 0), 24},
		{pkt.IPv4FromOctets(203, 0, 113, 128), 25},
	}
	for i, r := range routes {
		m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(r.addr), r.plen)
		ft.AddFlow(r.plen, m, openflow.Apply(openflow.Output(uint32(i+1))))
	}
	ft.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	a := analyzeTable(ft, DefaultOptions())
	if a.kind != TemplateLPM || a.lpmField != openflow.FieldIPDst {
		t.Fatalf("routing table should be LPM on ip_dst, got %v/%v", a.kind, a.lpmField)
	}
}

func TestAnalyzeLPMRejectsInconsistentPriorities(t *testing.T) {
	// The paper's example: /24 with priority 100 above an overlapping /30
	// with priority 20 violates the LPM prerequisite.
	ft := openflow.NewFlowTable(0)
	ft.AddFlow(100, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(192, 0, 2, 0)), 24), openflow.Apply(openflow.Output(1)))
	ft.AddFlow(20, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(192, 0, 2, 12)), 30), openflow.Apply(openflow.Output(2)))
	for i := 0; i < 5; i++ { // push above the direct-code threshold
		ft.AddFlow(10, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, byte(i), 0, 0)), 16), openflow.Apply(openflow.Output(3)))
	}
	a := analyzeTable(ft, DefaultOptions())
	if a.kind == TemplateLPM {
		t.Fatal("priority-inconsistent prefixes must not compile to LPM")
	}
	if a.kind != TemplateLinkedList {
		t.Fatalf("expected linked-list fallback, got %v", a.kind)
	}
}

// lpmPrerequisitePairwise is the reference statement of lpmPrerequisite's
// rule: it holds every pair of prefixes against each other.
func lpmPrerequisitePairwise(entries []*openflow.FlowEntry) (openflow.Field, bool) {
	var field openflow.Field
	haveField := false
	type pfx struct {
		addr uint32
		len  int
		prio int
	}
	var prefixes []pfx
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
		prefixes = append(prefixes, pfx{addr: uint32(v), len: plen, prio: e.Priority})
	}
	if !haveField {
		return 0, false
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].len < prefixes[j].len })
	for i, a := range prefixes {
		for _, b := range prefixes[i+1:] {
			if b.len == a.len {
				continue
			}
			if a.len == 0 || (a.addr^b.addr)>>(32-uint(a.len)) == 0 {
				if b.prio <= a.prio {
					return 0, false
				}
			}
		}
		if haveCatchAll && catchAllPrio >= a.prio {
			return 0, false
		}
	}
	return field, true
}

// TestLPMPrerequisiteMatchesPairwise holds lpmPrerequisite, which probes
// each prefix's covering prefixes by length, to the pairwise rule on random
// tables of overlapping prefixes whose priorities mostly, but not always,
// follow their lengths.
func TestLPMPrerequisiteMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	lens := []int{1, 7, 8, 15, 16, 23, 24, 25, 31, 32}
	accepted, rejected := 0, 0
	for trial := 0; trial < 5000; trial++ {
		var entries []*openflow.FlowEntry
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			m := openflow.NewMatch()
			plen := lens[rng.Intn(len(lens))]
			addr := uint64(10<<24 | rng.Intn(2)<<16 | rng.Intn(3)<<8 | rng.Intn(3)<<6)
			prio := plen + rng.Intn(4) - 1
			switch r := rng.Intn(100); {
			case r < 6:
				prio = rng.Intn(8) - 4 // a default route, usually the lowest
			case r < 8:
				m.SetPrefix(openflow.FieldIPSrc, addr, plen)
			case r < 10:
				m.SetMasked(openflow.FieldIPDst, addr, 0x00ff0000)
			default:
				m.SetPrefix(openflow.FieldIPDst, addr, plen)
			}
			entries = append(entries, &openflow.FlowEntry{Priority: prio, Match: m})
		}
		gotField, got := lpmPrerequisite(entries)
		wantField, want := lpmPrerequisitePairwise(entries)
		if got != want || (want && gotField != wantField) {
			for _, e := range entries {
				t.Logf("  prio %d %v", e.Priority, e.Match)
			}
			t.Fatalf("trial %d: lpmPrerequisite says %v/%v, the pairwise rule %v/%v", trial, gotField, got, wantField, want)
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 1000 || rejected < 1000 {
		t.Fatalf("random tables too one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

func TestAnalyzeLinkedListFallback(t *testing.T) {
	ft := openflow.NewFlowTable(0)
	// Heterogeneous field sets (the single-stage firewall style).
	ft.AddFlow(300, openflow.NewMatch().Set(openflow.FieldInPort, 2), openflow.Apply(openflow.Output(1)))
	ft.AddFlow(200, openflow.NewMatch().Set(openflow.FieldInPort, 1).Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(2)))
	ft.AddFlow(150, openflow.NewMatch().Set(openflow.FieldIPSrc, 5), openflow.Apply(openflow.Drop()))
	ft.AddFlow(140, openflow.NewMatch().Set(openflow.FieldIPSrc, 6), openflow.Apply(openflow.Drop()))
	ft.AddFlow(130, openflow.NewMatch().Set(openflow.FieldIPSrc, 7), openflow.Apply(openflow.Drop()))
	ft.AddFlow(100, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	a := analyzeTable(ft, DefaultOptions())
	if a.kind != TemplateLinkedList {
		t.Fatalf("heterogeneous table should fall to linked list, got %v", a.kind)
	}
}

// --- Compilation & equivalence ----------------------------------------------

func firewallPipeline() *openflow.Pipeline {
	pl := openflow.NewPipeline(2)
	web := uint64(pkt.IPv4FromOctets(192, 0, 2, 1))
	t0 := pl.Table(0)
	t0.AddFlow(300, openflow.NewMatch().Set(openflow.FieldInPort, 2), openflow.Apply(openflow.Output(1)))
	t0.AddFlow(200, openflow.NewMatch().Set(openflow.FieldInPort, 1).Set(openflow.FieldIPDst, web).Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(2)))
	t0.AddFlow(100, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	return pl
}

func macPipeline(n int) *openflow.Pipeline {
	pl := openflow.NewPipeline(4)
	t0 := pl.Table(0)
	for i := 0; i < n; i++ {
		t0.AddFlow(100, openflow.NewMatch().Set(openflow.FieldEthDst, uint64(0x020000000000)+uint64(i)),
			openflow.Apply(openflow.Output(uint32(1+i%4))))
	}
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Flood()))
	return pl
}

func routingPipeline(prefixes []struct {
	addr pkt.IPv4
	plen int
	port uint32
}) *openflow.Pipeline {
	pl := openflow.NewPipeline(8)
	t0 := pl.Table(0)
	for _, p := range prefixes {
		m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(p.addr), p.plen)
		t0.AddFlow(p.plen, m, openflow.Apply(openflow.DecTTL(), openflow.Output(p.port)))
	}
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	return pl
}

func TestCompileFirewallEquivalence(t *testing.T) {
	pl := firewallPipeline()
	web := pkt.IPv4FromOctets(192, 0, 2, 1)
	var packets []*pkt.Packet
	for inPort := uint32(1); inPort <= 2; inPort++ {
		for _, dport := range []uint16{22, 80, 443} {
			for _, dst := range []pkt.IPv4{web, pkt.IPv4FromOctets(192, 0, 2, 9)} {
				packets = append(packets, tcpPacket(t, inPort, pkt.IPv4FromOctets(198, 51, 100, 3), dst, 31000, dport))
			}
		}
	}
	packets = append(packets, ethPacket(t, 1, pkt.MACFromUint64(1), pkt.MACFromUint64(2)))
	checkEquivalence(t, pl, DefaultOptions(), packets)
}

func TestCompileMACTableUsesHashAndMatches(t *testing.T) {
	pl := macPipeline(100)
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if kind, _ := dp.TableTemplate(0); kind != TemplateHash {
		t.Fatalf("MAC table compiled to %v", kind)
	}
	if dp.ParserLayer() != pkt.LayerL2 {
		t.Fatalf("L2 pipeline should use the L2 parser, got %v", dp.ParserLayer())
	}
	var packets []*pkt.Packet
	for i := 0; i < 120; i++ {
		packets = append(packets, ethPacket(t, 1, pkt.MACFromUint64(uint64(0x020000000000)+uint64(i)), pkt.MACFromUint64(9)))
	}
	checkEquivalence(t, pl, DefaultOptions(), packets)
}

func TestCompileRoutingUsesLPMAndMatches(t *testing.T) {
	prefixes := []struct {
		addr pkt.IPv4
		plen int
		port uint32
	}{
		{pkt.IPv4FromOctets(10, 0, 0, 0), 8, 1},
		{pkt.IPv4FromOctets(10, 1, 0, 0), 16, 2},
		{pkt.IPv4FromOctets(10, 1, 2, 0), 24, 3},
		{pkt.IPv4FromOctets(192, 0, 2, 0), 24, 4},
		{pkt.IPv4FromOctets(198, 51, 0, 0), 16, 5},
		{pkt.IPv4FromOctets(203, 0, 113, 0), 24, 6},
	}
	pl := routingPipeline(prefixes)
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if kind, _ := dp.TableTemplate(0); kind != TemplateLPM {
		t.Fatalf("routing table compiled to %v", kind)
	}
	rng := rand.New(rand.NewSource(3))
	var packets []*pkt.Packet
	for i := 0; i < 200; i++ {
		var dst pkt.IPv4
		if i%2 == 0 {
			p := prefixes[rng.Intn(len(prefixes))]
			dst = p.addr + pkt.IPv4(rng.Intn(200))
		} else {
			dst = pkt.IPv4(rng.Uint32())
		}
		packets = append(packets, tcpPacket(t, 1, pkt.IPv4FromOctets(172, 16, 0, 1), dst, 1000, 80))
	}
	checkEquivalence(t, pl, DefaultOptions(), packets)
}

func TestCompileMultiStageGotoAndMetadata(t *testing.T) {
	pl := openflow.NewPipeline(4)
	t0 := pl.Table(0)
	t0.AddFlow(100, openflow.NewMatch().Set(openflow.FieldInPort, 1), openflow.Instructions{
		WriteMetadata: 0x55, MetadataMask: 0xff, GotoTable: 1, HasGoto: true,
	})
	t0.AddFlow(50, openflow.NewMatch(), openflow.Apply(openflow.Output(3)))
	t1 := pl.AddTable(1)
	t1.AddFlow(10, openflow.NewMatch().Set(openflow.FieldMetadata, 0x55).Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(2)))
	t1.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	packets := []*pkt.Packet{
		tcpPacket(t, 1, 1, 2, 3, 80),
		tcpPacket(t, 1, 1, 2, 3, 22),
		tcpPacket(t, 2, 1, 2, 3, 80),
	}
	checkEquivalence(t, pl, DefaultOptions(), packets)
}

func TestCompileWriteActionsAndVLAN(t *testing.T) {
	pl := openflow.NewPipeline(4)
	pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldVLANID, 7), openflow.Instructions{
		ApplyActions: openflow.ActionList{openflow.PopVLAN()},
		WriteActions: openflow.ActionList{openflow.Output(2)},
		GotoTable:    1, HasGoto: true,
	})
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	pl.AddTable(1).AddFlow(0, openflow.NewMatch(), openflow.Instructions{
		WriteActions: openflow.ActionList{openflow.SetField(openflow.FieldIPDSCP, 12)},
	})
	packets := []*pkt.Packet{
		udpVlanPacket(t, 1, 7, 1, 2, 3, 4),
		udpVlanPacket(t, 1, 8, 1, 2, 3, 4),
		tcpPacket(t, 1, 1, 2, 3, 4),
	}
	checkEquivalence(t, pl, DefaultOptions(), packets)
}

func TestCompileMissController(t *testing.T) {
	pl := openflow.NewPipeline(2)
	pl.Miss = openflow.MissController
	pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(1)))
	packets := []*pkt.Packet{
		tcpPacket(t, 1, 1, 2, 3, 80),
		tcpPacket(t, 1, 1, 2, 3, 22),
	}
	checkEquivalence(t, pl, DefaultOptions(), packets)
}

func TestCompileInvalidPipelineRejected(t *testing.T) {
	pl := openflow.NewPipeline(2)
	pl.Table(0).AddFlow(10, openflow.NewMatch(), openflow.Goto(7))
	if _, err := Compile(pl, DefaultOptions()); err == nil {
		t.Fatal("dangling goto must fail compilation")
	}
}

// TestCompileRandomPipelinesEquivalence is the main differential test: random
// multi-table pipelines with mixed templates, random traffic, interpreter vs
// compiled datapath.
func TestCompileRandomPipelinesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 25; trial++ {
		pl := randomPipeline(rng)
		var packets []*pkt.Packet
		for i := 0; i < 120; i++ {
			packets = append(packets, randomPacket(t, rng))
		}
		opts := DefaultOptions()
		opts.Decompose = trial%2 == 1
		checkEquivalence(t, pl, opts, packets)
	}
}

// randomPipeline builds a 1–3 stage pipeline whose tables exercise different
// templates.
func randomPipeline(rng *rand.Rand) *openflow.Pipeline {
	pl := openflow.NewPipeline(4)
	numTables := 1 + rng.Intn(3)
	for ti := 0; ti < numTables; ti++ {
		tbl := pl.AddTable(openflow.TableID(ti))
		last := ti == numTables-1
		style := rng.Intn(4)
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			m := openflow.NewMatch()
			switch style {
			case 0: // exact MACs
				m.Set(openflow.FieldEthDst, uint64(0x0200_0000_0000)+uint64(rng.Intn(8)))
			case 1: // IP prefixes
				m.SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, byte(rng.Intn(4)), byte(rng.Intn(4)), 0)), 8+8*rng.Intn(3))
			case 2: // ports
				m.Set(openflow.FieldInPort, uint64(1+rng.Intn(4))).Set(openflow.FieldTCPDst, uint64(rng.Intn(6)))
			case 3: // mixed / heterogeneous
				if rng.Intn(2) == 0 {
					m.Set(openflow.FieldIPSrc, uint64(rng.Intn(6)))
				}
				if rng.Intn(2) == 0 {
					m.Set(openflow.FieldUDPDst, uint64(rng.Intn(6)))
				}
				if m.IsEmpty() {
					m.Set(openflow.FieldInPort, uint64(1+rng.Intn(4)))
				}
			}
			var ins openflow.Instructions
			if !last && rng.Intn(2) == 0 {
				ins = openflow.ApplyThenGoto(openflow.TableID(ti+1), openflow.SetField(openflow.FieldIPDSCP, uint64(rng.Intn(32))))
			} else {
				ins = openflow.Apply(openflow.Output(uint32(1 + rng.Intn(4))))
			}
			prio := 1 + rng.Intn(100)
			if style == 1 {
				// Keep prefix priorities consistent so LPM can apply.
				plen, _ := m.IsPrefix(openflow.FieldIPDst)
				prio = plen
			}
			tbl.AddFlow(prio, m, ins)
		}
		// Catch-all: either drop, forward, or continue.
		switch rng.Intn(3) {
		case 0:
			tbl.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
		case 1:
			tbl.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Output(uint32(1+rng.Intn(4)))))
		case 2:
			if !last {
				tbl.AddFlow(0, openflow.NewMatch(), openflow.Goto(openflow.TableID(ti+1)))
			} else {
				tbl.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
			}
		}
	}
	return pl
}

func randomPacket(tb testing.TB, rng *rand.Rand) *pkt.Packet {
	inPort := uint32(1 + rng.Intn(4))
	src := pkt.IPv4(rng.Intn(6))
	dst := pkt.IPv4FromOctets(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4)))
	if rng.Intn(3) == 0 {
		dst = pkt.IPv4(rng.Uint32())
	}
	switch rng.Intn(4) {
	case 0:
		return ethPacket(tb, inPort, pkt.MACFromUint64(uint64(0x0200_0000_0000)+uint64(rng.Intn(8))), pkt.MACFromUint64(3))
	case 1:
		return udpVlanPacket(tb, inPort, uint16(rng.Intn(3)+1), src, dst, uint16(rng.Intn(6)), uint16(rng.Intn(6)))
	default:
		return tcpPacket(tb, inPort, src, dst, uint16(rng.Intn(6)), uint16(rng.Intn(6)))
	}
}

// --- Updates ------------------------------------------------------------------

func TestAddFlowIncrementalHash(t *testing.T) {
	pl := macPipeline(50)
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rebuildsBefore := dp.Rebuilds()
	newMAC := uint64(0x020000000000) + 5000
	err = dp.AddFlow(0, openflow.NewEntry(100, openflow.NewMatch().Set(openflow.FieldEthDst, newMAC), openflow.Apply(openflow.Output(3))))
	if err != nil {
		t.Fatal(err)
	}
	if dp.IncrementalUpdates() != 1 {
		t.Fatalf("expected an incremental update, rebuilds %d -> %d", rebuildsBefore, dp.Rebuilds())
	}
	p := ethPacket(t, 1, pkt.MACFromUint64(newMAC), pkt.MACFromUint64(9))
	var v openflow.Verdict
	dp.Process(p, &v)
	if !v.Forwarded() || v.OutPorts[0] != 3 {
		t.Fatalf("new flow not reachable: %v", v)
	}
}

func TestAddFlowTemplateFallbackRebuild(t *testing.T) {
	pl := macPipeline(50)
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Adding a rule with a different field set violates the hash
	// prerequisite and must force a rebuild into the linked-list template.
	err = dp.AddFlow(0, openflow.NewEntry(200, openflow.NewMatch().Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(4))))
	if err != nil {
		t.Fatal(err)
	}
	kind, _ := dp.TableTemplate(0)
	if kind != TemplateLinkedList {
		t.Fatalf("expected linked-list fallback after prerequisite violation, got %v", kind)
	}
	agreesWithInterpreter(t, dp, "after the rebuild",
		tcpPacket(t, 1, 1, 2, 3, 80),
		ethPacket(t, 1, pkt.MACFromUint64(0x020000000000+7), pkt.MACFromUint64(9)))
}

func TestDeleteFlow(t *testing.T) {
	pl := macPipeline(20)
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mac := uint64(0x020000000000) + 3
	match := openflow.NewMatch().Set(openflow.FieldEthDst, mac)
	removed, err := dp.DeleteFlow(0, match, -1)
	if err != nil || removed != 1 {
		t.Fatalf("delete: %d %v", removed, err)
	}
	p := ethPacket(t, 1, pkt.MACFromUint64(mac), pkt.MACFromUint64(9))
	var v openflow.Verdict
	dp.Process(p, &v)
	// After deletion the packet hits the flood catch-all.
	if len(v.OutPorts) != 3 {
		t.Fatalf("deleted flow should fall to flood: %v", v)
	}
	if removed, _ := dp.DeleteFlow(0, match, -1); removed != 0 {
		t.Fatal("second delete should remove nothing")
	}
	if _, err := dp.DeleteFlow(99, match, -1); err == nil {
		t.Fatal("deleting from a missing table must error")
	}
}

// TestShadowedEntrySurvivesDelete installs one match at two priorities in a
// compound-hash and in an LPM table — one key, so the template holds only the
// upper entry — and deletes the upper one.  The shadowed entry is still in the
// declarative table and must be served again (the delete used to remove the
// key, leaving a table miss).
func TestShadowedEntrySurvivesDelete(t *testing.T) {
	mac := func(i int) *openflow.Match {
		return openflow.NewMatch().Set(openflow.FieldEthDst, uint64(0x020000000000)+uint64(i))
	}
	route := func(i int) *openflow.Match {
		return openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, byte(4*i), 0, 0)), 24-i%2)
	}
	for _, c := range []struct {
		kind  TemplateKind
		match func(i int) *openflow.Match
		p     *pkt.Packet
	}{
		{TemplateHash, mac, ethPacket(t, 1, pkt.MACFromUint64(0x020000000001), pkt.MACFromUint64(9))},
		{TemplateLPM, route, tcpPacket(t, 1, 1, pkt.IPv4FromOctets(10, 4, 0, 9), 3, 80)},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			pl := openflow.NewPipeline(4)
			for i := 0; i < 20; i++ {
				pl.Table(0).AddFlow(10, c.match(i), openflow.Apply(openflow.Output(uint32(1+i%4))))
			}
			dp, err := Compile(pl, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if k, _ := dp.TableTemplate(0); k != c.kind {
				t.Fatalf("table 0 compiled to %s, want %s", k, c.kind)
			}
			if err := dp.AddFlow(0, openflow.NewEntry(50, c.match(1), openflow.Apply(openflow.Output(4)))); err != nil {
				t.Fatal(err)
			}
			agreesWithInterpreter(t, dp, "with the shadowing entry", c.p)
			if n, err := dp.DeleteFlow(0, c.match(1), 50); n != 1 || err != nil {
				t.Fatalf("delete: %d %v", n, err)
			}
			agreesWithInterpreter(t, dp, "after deleting the shadowing entry", c.p)
		})
	}
}

// TestLPMInsertChecksPriorities adds a short prefix that outranks the longer
// ones it covers to an LPM table.  Longest-prefix order no longer is priority
// order, so the add must not be taken incrementally (it used to be, and the
// /23 kept winning).
func TestLPMInsertChecksPriorities(t *testing.T) {
	pl := openflow.NewPipeline(4)
	for i := 0; i < 20; i++ {
		pl.Table(0).AddFlow(24, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, byte(2*i), 0, 0)), 24),
			openflow.Apply(openflow.Output(1)))
		pl.Table(0).AddFlow(23, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, byte(2*i+1), 0, 0)), 23),
			openflow.Apply(openflow.Output(2)))
	}
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := dp.TableTemplate(0); k != TemplateLPM {
		t.Fatalf("table 0 compiled to %s, want %s", k, TemplateLPM)
	}
	err = dp.AddFlow(0, openflow.NewEntry(100, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, 0, 0, 0)), 8),
		openflow.Apply(openflow.Output(3))))
	if err != nil {
		t.Fatal(err)
	}
	if n := dp.IncrementalUpdates(); n != 0 {
		t.Fatalf("the /8 at priority 100 was inserted into the LPM template (%d incremental updates)", n)
	}
	agreesWithInterpreter(t, dp, "with the /8 on top",
		tcpPacket(t, 1, 1, pkt.IPv4FromOctets(10, 3, 0, 9), 3, 80),
		tcpPacket(t, 1, 1, pkt.IPv4FromOctets(10, 2, 0, 9), 3, 80),
		tcpPacket(t, 1, 1, pkt.IPv4FromOctets(10, 200, 0, 9), 3, 80),
		tcpPacket(t, 1, 1, pkt.IPv4FromOctets(11, 3, 0, 9), 3, 80))
}

// TestCatchAllInsertChecksPriorities is the same pair of rules for the entry
// both templates keep beside their lookup structure: a catch-all that
// outranks keyed entries must win, and of two catch-alls the lower must
// survive the delete of the upper.
func TestCatchAllInsertChecksPriorities(t *testing.T) {
	for _, c := range []struct {
		kind TemplateKind
		pl   func() *openflow.Pipeline
		p    *pkt.Packet
	}{
		{TemplateHash, func() *openflow.Pipeline { return macPipeline(20) },
			ethPacket(t, 1, pkt.MACFromUint64(0x020000000001), pkt.MACFromUint64(9))},
		{TemplateLPM, func() *openflow.Pipeline { return workload.L3UseCase(50, 4, 7).Pipeline },
			tcpPacket(t, 1, 1, pkt.IPv4FromOctets(240, 0, 0, 9), 3, 80)},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			for _, prio := range []int{1000, 5} {
				dp, err := Compile(c.pl(), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if k, _ := dp.TableTemplate(0); k != c.kind {
					t.Fatalf("table 0 compiled to %s, want %s", k, c.kind)
				}
				if err := dp.AddFlow(0, openflow.NewEntry(prio, openflow.NewMatch(), openflow.Apply(openflow.Output(4)))); err != nil {
					t.Fatal(err)
				}
				agreesWithInterpreter(t, dp, fmt.Sprintf("second catch-all at %d", prio), c.p)
				if n, err := dp.DeleteFlow(0, openflow.NewMatch(), prio); n != 1 || err != nil {
					t.Fatalf("delete: %d %v", n, err)
				}
				agreesWithInterpreter(t, dp, fmt.Sprintf("second catch-all at %d deleted", prio), c.p)
			}
		})
	}
}

// TestTemplateValueSlotsReused churns one LPM and one compound-hash table
// through thousands of incremental add/delete pairs, two churned entries alive
// at a time so freed slots are refilled beside live ones.  The LPM's value
// store must stay bounded by the live entries (it used to grow by one slot
// per add and keep every deleted entry reachable), and every slot must be
// held — by an entry or, retired, until the next grace period — or free.
// The compound hash stores its entries beside their keys: its cuckoo table
// must keep its size and hold exactly the live keys, and every deleted entry
// but the last, which the lane it was retired from holds until the next
// add, must be garbage.  The datapath must still agree with the interpreter
// on every frame, including the ones the last churned entries catch.
func TestTemplateValueSlotsReused(t *testing.T) {
	const pairs = 5000
	var freed atomic.Int64 // churned compiled entries the collector has freed
	l3 := workload.L3UseCase(1000, 8, 2016)
	l3Frames, l3Ports := traceFrames(l3, 64)
	l2 := workload.L2UseCase(1000, 4)
	l2Frames, l2Ports := traceFrames(l2, 64)
	churnMAC := func(i int) uint64 { return 0x0a0000000000 + uint64(i%7) }
	for i := 0; i < 7; i++ {
		l2Frames = append(l2Frames, ethPacket(t, 1, pkt.MACFromUint64(churnMAC(i)), pkt.MACFromUint64(9)).Data)
		l2Ports = append(l2Ports, 1)
	}
	cases := []struct {
		name    string
		uc      *workload.UseCase
		frames  [][]byte
		inPorts []uint32
		kind    TemplateKind
		// check holds the churned table to its store, given the table as
		// compiled and as churned.
		check func(t *testing.T, compiled, live tableDatapath)
		// entry is the i-th churned entry: a host route to a frame's
		// destination (the RIB holds nothing longer than a /24), or a
		// station the bridge does not know.
		entry func(i int) *openflow.FlowEntry
		// added, when set, is called with the table after each churned
		// entry e is added.
		added func(live tableDatapath, e *openflow.FlowEntry)
	}{
		{"lpm", l3, l3Frames, l3Ports, TemplateLPM, func(t *testing.T, _, live tableDatapath) {
			vs := &live.(*lpmTable).valueSlots
			if n := vs.used; n > live.Len()+2 {
				t.Errorf("%d value slots for %d entries after %d add/delete pairs", n, live.Len(), pairs)
			}
			held := 0 // installed or retired
			for i := range vs.used {
				if vs.entry(uint32(i)) != nil {
					held++
				}
			}
			if held+len(vs.free) != vs.used {
				t.Errorf("%d slots, %d held (%d of them retired) + %d free", vs.used, held, len(vs.retired), len(vs.free))
			}
		},
			func(i int) *openflow.FlowEntry {
				p := pkt.Packet{Data: l3Frames[i%7]}
				pkt.ParseTo(&p, pkt.LayerL3)
				return openflow.NewEntry(32, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(p.Headers.IPDst), 32),
					openflow.Apply(openflow.Output(uint32(1+i%8))))
			}, nil},
		{"hash", l2, l2Frames, l2Ports, TemplateHash, func(t *testing.T, compiled, live tableDatapath) {
			before, after := compiled.(*hashTable).index.MemoryFootprint(), live.(*hashTable).index.MemoryFootprint()
			if live != compiled || after != before {
				t.Errorf("the cuckoo table went from %d to %d B after %d add/delete pairs", before, after, pairs)
			}
			if n := live.(*hashTable).index.Len(); n != l2.Pipeline.Table(0).Len() {
				t.Errorf("%d keys stored for %d entries", n, l2.Pipeline.Table(0).Len())
			}
			for try := 0; try < 100 && freed.Load() < pairs-2; try++ {
				runtime.GC()
				time.Sleep(time.Millisecond) // the finalizers run
			}
			if n := freed.Load(); n < pairs-2 {
				t.Errorf("%d of %d deleted entries freed: the others are still reachable", n, pairs-1)
			}
		},
			func(i int) *openflow.FlowEntry {
				return openflow.NewEntry(100, openflow.NewMatch().Set(openflow.FieldEthDst, churnMAC(i)),
					openflow.Apply(openflow.Output(uint32(1+i%4))))
			},
			func(live tableDatapath, e *openflow.FlowEntry) {
				h := live.(*hashTable)
				runtime.SetFinalizer(h.index.Value(h.gather.entry(e.Match)).Load(), func(*compiledEntry) { freed.Add(1) })
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newScopeRig(t, c.uc.Pipeline, false, 0, c.frames, c.inPorts)
			if k, _ := r.dp.TableTemplate(0); k != c.kind {
				t.Fatalf("table 0 compiled to %s, want %s", k, c.kind)
			}
			rebuilds, compiled := r.dp.Rebuilds(), r.dp.trampolines[0].load()
			for i := 0; i < pairs; i++ {
				e := c.entry(i)
				if err := r.dp.AddFlow(0, e); err != nil {
					t.Fatal(err)
				}
				if c.added != nil {
					c.added(r.dp.trampolines[0].load(), e)
				}
				if i > 0 {
					if n, err := r.dp.DeleteFlow(0, c.entry(i-1).Match, -1); n != 1 || err != nil {
						t.Fatalf("pair %d: removed %d entries, %v", i, n, err)
					}
				}
			}
			if got := r.dp.Rebuilds(); got != rebuilds {
				t.Fatalf("%d rebuilds during the churn: it did not take the incremental path", got-rebuilds)
			}
			c.check(t, compiled, r.dp.trampolines[0].load())
			r.check("after churn", all)
		})
	}
}

func TestAddFlowCreatesGotoTarget(t *testing.T) {
	pl := openflow.NewPipeline(2)
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	err = dp.AddFlow(0, openflow.NewEntry(10, openflow.NewMatch().Set(openflow.FieldInPort, 1), openflow.Goto(5)))
	if err != nil {
		t.Fatal(err)
	}
	err = dp.AddFlow(5, openflow.NewEntry(10, openflow.NewMatch(), openflow.Apply(openflow.Output(2))))
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket(t, 1, 1, 2, 3, 4)
	var v openflow.Verdict
	dp.Process(p, &v)
	if !v.Forwarded() || v.OutPorts[0] != 2 {
		t.Fatalf("goto chain after updates: %v", v)
	}
}

func TestCountersOnCompiledPath(t *testing.T) {
	pl := firewallPipeline()
	opts := DefaultOptions()
	opts.UpdateCounters = true
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket(t, 2, 1, 2, 3, 4)
	var v openflow.Verdict
	for i := 0; i < 7; i++ {
		dp.Process(clonePacket(p), &v)
	}
	// The pipeline's own counters must reflect the traffic.
	total := uint64(0)
	for _, e := range dp.Pipeline().Table(0).Entries() {
		total += e.Counters.Packets.Load()
	}
	if total != 7 {
		t.Fatalf("counters after 7 packets: %d", total)
	}
}

// TestCompileTakesPipelineOver checks that Compile copies no entry: the
// datapath executes the caller's own pipeline, and a packet counts on the
// entry the caller built.
func TestCompileTakesPipelineOver(t *testing.T) {
	pl := openflow.NewPipeline(4)
	e := pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldTCPDst, 4), openflow.Apply(openflow.Output(2)))
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	opts := DefaultOptions()
	opts.UpdateCounters = true
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Pipeline() != pl {
		t.Fatal("the datapath executes a copy of the pipeline it was given")
	}
	var v openflow.Verdict
	dp.Process(tcpPacket(t, 1, 1, 2, 3, 4), &v)
	if !v.Forwarded() || v.OutPorts[0] != 2 {
		t.Fatalf("verdict %v, want output to port 2", v.String())
	}
	if n := e.Counters.Packets.Load(); n != 1 {
		t.Fatalf("the caller's entry counted %d packets, want 1", n)
	}
}

// --- Metering -----------------------------------------------------------------

func TestMeteredProcessingChargesCycles(t *testing.T) {
	opts := DefaultOptions()
	opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
	pl := macPipeline(100)
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := ethPacket(t, 1, pkt.MACFromUint64(0x020000000000+4), pkt.MACFromUint64(9))
	var v openflow.Verdict
	for i := 0; i < 1000; i++ {
		dp.Process(clonePacket(p), &v)
	}
	m := dp.Meter()
	if m.Packets() != 1000 {
		t.Fatalf("metered packets %d", m.Packets())
	}
	cpp := m.CyclesPerPacket()
	if cpp < 90 || cpp > 400 {
		t.Fatalf("L2 switching cycles/packet out of plausible range: %v", cpp)
	}
	if m.PacketRate() < 1e6 {
		t.Fatalf("modelled packet rate too low: %v", m.PacketRate())
	}
}

// TestTableDatapathLookupSurface keeps the observed twin from growing back: a
// template carries at most two lookups (per packet, recording or not, and per
// burst), and the cycle model stays out of the datapath — of the package's
// non-test files only core.go (Options.Meter) and cyclemodel.go, which
// prices the walk's steps, import cpumodel.
func TestTableDatapathLookupSurface(t *testing.T) {
	iface := reflect.TypeOf((*tableDatapath)(nil)).Elem()
	var lookups []string
	for i := 0; i < iface.NumMethod(); i++ {
		if m := iface.Method(i); strings.HasPrefix(m.Name, "Lookup") {
			lookups = append(lookups, m.Name)
		}
	}
	if len(lookups) > 2 {
		t.Errorf("tableDatapath has %d lookups, at most 2 allowed: %v", len(lookups), lookups)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"core.go": true, "cyclemodel.go": true}
	var importers []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"eswitch/internal/cpumodel"` {
				importers = append(importers, name)
				if !allowed[name] {
					t.Errorf("%s imports cpumodel: the datapath records steps, cyclemodel.go prices them", name)
				}
			}
		}
	}
	if len(importers) != len(allowed) {
		t.Errorf("cpumodel importers %v, want exactly core.go and cyclemodel.go", importers)
	}
}

// TestWorkerCarriesNoMeter keeps the meter off the worker plane: a Worker has
// no meter field and no method that takes or returns one, so every burst
// entry point is the burst engine whether or not the datapath is metered.
func TestWorkerCarriesNoMeter(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf((*cpumodel.Meter)(nil)): true,
	}
	w := reflect.TypeOf(Worker{})
	for i := 0; i < w.NumField(); i++ {
		if f := w.Field(i); banned[f.Type] {
			t.Errorf("Worker.%s is a %s", f.Name, f.Type)
		}
	}
	pw := reflect.PointerTo(w)
	for i := 0; i < pw.NumMethod(); i++ {
		m := pw.Method(i)
		for j := 0; j < m.Type.NumIn(); j++ {
			if banned[m.Type.In(j)] {
				t.Errorf("Worker.%s takes a %s", m.Name, m.Type.In(j))
			}
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			if banned[m.Type.Out(j)] {
				t.Errorf("Worker.%s returns a %s", m.Name, m.Type.Out(j))
			}
		}
	}
}

// --- Shared action sets --------------------------------------------------------

func TestActionSetSharing(t *testing.T) {
	pl := macPipeline(1000)
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 1000 MAC entries output to only 4 ports plus flood: at most 5 action sets.
	if n := dp.NumSharedActionSets(); n > 5 {
		t.Fatalf("action sets not shared: %d distinct sets", n)
	}
}

package ovs

import (
	"math/rand"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
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

func ethPacket(tb testing.TB, inPort uint32, dst pkt.MAC) *pkt.Packet {
	tb.Helper()
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{Dst: dst, Src: pkt.MACFromUint64(0x1), EtherType: 0x88b5}, nil))
	return &pkt.Packet{Data: frame, InPort: inPort}
}

func clonePacket(p *pkt.Packet) *pkt.Packet {
	return &pkt.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort, Metadata: p.Metadata}
}

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

// checkAgainstInterpreter compares the cached switch against the reference
// interpreter on the given traffic, replaying the trace twice so that both
// cold (slow path) and warm (cached) behaviour are covered.
func checkAgainstInterpreter(t *testing.T, pl *openflow.Pipeline, opts Options, packets []*pkt.Packet) *Switch {
	t.Helper()
	sw, err := New(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := openflow.NewInterpreter(pl)
	in.UpdateCounters = false
	for round := 0; round < 2; round++ {
		for i, p := range packets {
			var vRef, vGot openflow.Verdict
			in.Process(clonePacket(p), &vRef, nil)
			sw.Process(clonePacket(p), &vGot)
			if !vRef.Equivalent(&vGot) {
				t.Fatalf("round %d packet %d: interpreter=%v ovs=%v\nmegaflows: %v",
					round, i, vRef.String(), vGot.String(), sw.MegaflowEntries())
			}
		}
	}
	return sw
}

// TestNewTakesPipelineOver checks that New copies no entry: the slow path
// classifies over the caller's own pipeline, so a flow-mod on the switch is
// one on that pipeline.
func TestNewTakesPipelineOver(t *testing.T) {
	pl := firewallPipeline()
	sw, err := New(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := openflow.NewEntry(400, openflow.NewMatch().Set(openflow.FieldInPort, 1), openflow.Apply(openflow.Output(2)))
	if err := sw.AddFlow(0, e); err != nil {
		t.Fatal(err)
	}
	if pl.Table(0).Entry(400, e.Match) != e {
		t.Fatal("the switch took the flow-mod on a copy of the pipeline it was given")
	}
	var v openflow.Verdict
	sw.Process(tcpPacket(t, 1, 1, 2, 3, 4), &v)
	if !v.Forwarded() || v.OutPorts[0] != 2 {
		t.Fatalf("verdict %v, want output to port 2", v.String())
	}
}

func TestFirewallCorrectness(t *testing.T) {
	pl := firewallPipeline()
	web := pkt.IPv4FromOctets(192, 0, 2, 1)
	var packets []*pkt.Packet
	for inPort := uint32(1); inPort <= 2; inPort++ {
		for _, dport := range []uint16{22, 80, 443} {
			packets = append(packets, tcpPacket(t, inPort, pkt.IPv4FromOctets(198, 51, 100, 7), web, 40000, dport))
		}
	}
	sw := checkAgainstInterpreter(t, pl, DefaultOptions(), packets)
	st := sw.Stats()
	if st.SlowPath == 0 || st.Total() != uint64(2*len(packets)) {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheHierarchyProgression(t *testing.T) {
	pl := macPipeline(64)
	sw, err := New(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := ethPacket(t, 1, pkt.MACFromUint64(0x020000000000+7))
	var v openflow.Verdict
	// First packet: upcall to the slow path.
	sw.Process(clonePacket(p), &v)
	if st := sw.Stats(); st.SlowPath != 1 || st.Microflow != 0 || st.Megaflow != 0 {
		t.Fatalf("after first packet: %+v", st)
	}
	// Second identical packet: microflow hit.
	sw.Process(clonePacket(p), &v)
	if st := sw.Stats(); st.Microflow != 1 {
		t.Fatalf("after second packet: %+v", st)
	}
	// A packet from a different source MAC (same destination) misses the
	// microflow cache but hits the megaflow (which only matched eth_dst).
	b := pkt.NewBuilder(128)
	p2 := &pkt.Packet{Data: pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{
		Dst: pkt.MACFromUint64(0x020000000000 + 7), Src: pkt.MACFromUint64(0x99), EtherType: 0x88b5}, nil)), InPort: 1}
	sw.Process(p2, &v)
	if st := sw.Stats(); st.Megaflow != 1 {
		t.Fatalf("after third packet: %+v", st)
	}
	micro, mega := sw.CacheSizes()
	if micro == 0 || mega == 0 {
		t.Fatalf("cache sizes %d %d", micro, mega)
	}
}

// TestPuntAttributionAtEveryLevel holds the baseline's punt reason and table
// to the interpreter's on a two-table MissController pipeline, for the
// upcall, a microflow hit (the same frame again) and a megaflow hit (the
// megaflow's other source MAC): a miss in table 0 and in table 1 reads
// no_match there, an explicit controller output in table 1 reads action.
func TestPuntAttributionAtEveryLevel(t *testing.T) {
	pl := openflow.NewPipeline(4)
	pl.Miss = openflow.MissController
	pl.Table(0).AddFlow(100, openflow.NewMatch().Set(openflow.FieldInPort, 1), openflow.Goto(1))
	pl.AddTable(1).AddFlow(100, openflow.NewMatch().Set(openflow.FieldEthDst, 0x42), openflow.Apply(openflow.ToController()))
	sw, err := New(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := openflow.NewInterpreter(pl)
	for _, c := range []struct {
		inPort uint32
		dst    uint64
		reason openflow.PuntReason
		table  openflow.TableID
	}{
		{2, 0x42, openflow.PuntMiss, 0},
		{1, 0x43, openflow.PuntMiss, 1},
		{1, 0x42, openflow.PuntAction, 1},
	} {
		for _, src := range []uint64{0x1, 0x1, 0x2} {
			b := pkt.NewBuilder(128)
			p := &pkt.Packet{InPort: c.inPort, Data: pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{
				Dst: pkt.MACFromUint64(c.dst), Src: pkt.MACFromUint64(src), EtherType: 0x88b5}, nil))}
			var want, got openflow.Verdict
			in.Process(clonePacket(p), &want, nil)
			sw.Process(p, &got)
			if want.PuntReason != c.reason || want.PuntTable != c.table {
				t.Fatalf("in_port %d dst %#x: interpreter punts %s at table %d, want %s at %d",
					c.inPort, c.dst, want.PuntReason, want.PuntTable, c.reason, c.table)
			}
			if !got.ToController || got.PuntReason != want.PuntReason || got.PuntTable != want.PuntTable {
				t.Fatalf("in_port %d dst %#x src %#x (%+v): baseline punts %s at table %d, interpreter %s at %d",
					c.inPort, c.dst, src, sw.Stats(), got.PuntReason, got.PuntTable, want.PuntReason, want.PuntTable)
			}
		}
	}
	if st := sw.Stats(); st.SlowPath != 3 || st.Microflow != 3 || st.Megaflow != 3 {
		t.Fatalf("every level must have punted: %+v", st)
	}
}

func TestMegaflowMaskOnlyCoversExaminedFields(t *testing.T) {
	// The MAC pipeline matches only eth_dst, so megaflow entries must not
	// constrain L3/L4 fields even though the packets carry them.
	pl := macPipeline(32)
	opts := DefaultOptions()
	opts.ConservativeTransportMask = false
	sw, err := New(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{Dst: pkt.MACFromUint64(0x020000000000 + 9), Src: pkt.MACFromUint64(1)},
		pkt.IPv4Opts{Src: 1, Dst: 2}, pkt.L4Opts{Src: 3, Dst: 4}))
	var v openflow.Verdict
	sw.Process(&pkt.Packet{Data: frame, InPort: 1}, &v)
	entries := sw.MegaflowEntries()
	if len(entries) != 1 {
		t.Fatalf("megaflow entries: %d", len(entries))
	}
	fields := entries[0].Fields()
	if !fields.Has(openflow.FieldEthDst) {
		t.Fatalf("megaflow must match eth_dst: %v", entries[0])
	}
	for _, f := range []openflow.Field{openflow.FieldTCPDst, openflow.FieldIPDst, openflow.FieldIPSrc} {
		if fields.Has(f) {
			t.Fatalf("megaflow must not constrain %v: %v", f, entries[0])
		}
	}
}

// fig3Pipeline is the reconstructed flow table of Fig. 3: a single exact
// match on tcp_dst=191 over a catch-all.
func fig3Pipeline() *openflow.Pipeline {
	pl := openflow.NewPipeline(2)
	pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldTCPDst, 191), openflow.Apply(openflow.Output(1)))
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	return pl
}

func fig3Options() Options {
	opts := DefaultOptions()
	// Fig. 3 is about the prefix-tracking mask computation itself, so the
	// conservative transport un-wildcarding is disabled here.
	opts.ConservativeTransportMask = false
	return opts
}

// TestFig3SevenEntries reproduces the seq-1 count of Fig. 3: the seven port
// values of the paper generate one megaflow per divergent bit position
// (positions 3–8) plus the exact entry for the matching port — 7 entries.
func TestFig3SevenEntries(t *testing.T) {
	sw, err := New(fig3Pipeline(), fig3Options())
	if err != nil {
		t.Fatal(err)
	}
	seq1 := []uint16{190, 189, 187, 183, 175, 159, 191}
	var v openflow.Verdict
	for _, port := range seq1 {
		sw.Process(tcpPacket(t, 1, 1, 2, 9999, port), &v)
	}
	if _, mega := sw.CacheSizes(); mega != 7 {
		t.Fatalf("Fig. 3 seq 1 should generate 7 megaflow entries, got %d: %v", mega, sw.MegaflowEntries())
	}
}

// TestFig3TrafficDependence demonstrates the broader point behind Fig. 3: the
// megaflow cache footprint for the very same flow table depends strongly on
// which packets happen to arrive — ports diverging from the rule early
// collapse onto a handful of broad megaflows, ports adjacent to the rule need
// (nearly) one megaflow each.  (The paper's exact seq-2 single-entry outcome
// additionally depends on OVS's trie-walk un-wildcarding heuristics; a
// per-packet-minimal mask computation such as this one provably produces
// arrival-order-independent cache contents, as eswitch-experiments -figure
// fig3 notes.)
func TestFig3TrafficDependence(t *testing.T) {
	run := func(ports []uint16) int {
		sw, err := New(fig3Pipeline(), fig3Options())
		if err != nil {
			t.Fatal(err)
		}
		var v openflow.Verdict
		for _, port := range ports {
			sw.Process(tcpPacket(t, 1, 1, 2, 9999, port), &v)
		}
		_, mega := sw.CacheSizes()
		return mega
	}
	// 64 ports in 0–63 all diverge from 191 at the top of the port number:
	// a single broad megaflow covers them all.
	var farPorts []uint16
	for p := uint16(0); p < 64; p++ {
		farPorts = append(farPorts, p)
	}
	// 64 ports right around the rule each need their own (near-)exact
	// megaflow.
	var nearPorts []uint16
	for p := uint16(128); p < 192; p++ {
		nearPorts = append(nearPorts, p)
	}
	far := run(farPorts)
	near := run(nearPorts)
	if far >= near {
		t.Fatalf("expected traffic-dependent cache footprint: far=%d near=%d", far, near)
	}
	if far > 2 {
		t.Fatalf("far-away ports should collapse onto at most 2 megaflows, got %d", far)
	}
	if near < 7 {
		t.Fatalf("rule-adjacent ports should fragment the cache, got %d", near)
	}
}

func TestHighEntropyFieldsDefeatTheCache(t *testing.T) {
	// A pipeline matching on tcp_src (a high-entropy field) forces one
	// megaflow per source port: the flow cache provides no aggregation,
	// which is the pathology behind the paper's port-scan example.
	pl := openflow.NewPipeline(2)
	pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldTCPSrc, 12345), openflow.Apply(openflow.Drop()))
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Output(1)))
	sw, err := New(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var v openflow.Verdict
	const flows = 500
	for i := 0; i < flows; i++ {
		sw.Process(tcpPacket(t, 1, 1, 2, uint16(20000+i), 80), &v)
	}
	st := sw.Stats()
	if st.SlowPath < flows/2 {
		t.Fatalf("high-entropy traffic should keep hitting the slow path, stats %+v", st)
	}
}

func TestInvalidationOnUpdate(t *testing.T) {
	pl := macPipeline(16)
	sw, err := New(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := ethPacket(t, 1, pkt.MACFromUint64(0x020000000000+3))
	var v openflow.Verdict
	sw.Process(clonePacket(p), &v)
	sw.Process(clonePacket(p), &v)
	if micro, mega := sw.CacheSizes(); micro == 0 || mega == 0 {
		t.Fatal("caches should be warm")
	}
	// Any update invalidates everything.
	err = sw.AddFlow(0, openflow.NewEntry(100, openflow.NewMatch().Set(openflow.FieldEthDst, 0x999), openflow.Apply(openflow.Output(2))))
	if err != nil {
		t.Fatal(err)
	}
	if micro, mega := sw.CacheSizes(); micro != 0 || mega != 0 {
		t.Fatalf("caches not invalidated: %d %d", micro, mega)
	}
	if sw.Stats().Invalidations != 1 {
		t.Fatalf("invalidations %d", sw.Stats().Invalidations)
	}
	// Deleting also invalidates; the updated behaviour must be visible.
	sw.Process(clonePacket(p), &v)
	if removed, err := sw.DeleteFlow(0, openflow.NewMatch().Set(openflow.FieldEthDst, 0x020000000000+3), -1); err != nil || removed != 1 {
		t.Fatalf("delete: %d %v", removed, err)
	}
	sw.Process(clonePacket(p), &v)
	if len(v.OutPorts) != 3 { // falls to flood after deletion
		t.Fatalf("post-delete verdict: %v", v.String())
	}
	if _, err := sw.DeleteFlow(42, openflow.NewMatch(), -1); err == nil {
		t.Fatal("deleting from a missing table must fail")
	}
}

func TestMicroflowEvictionRespectsLimit(t *testing.T) {
	pl := macPipeline(64)
	opts := DefaultOptions()
	opts.MicroflowLimit = 16
	sw, err := New(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var v openflow.Verdict
	for i := 0; i < 64; i++ {
		sw.Process(ethPacket(t, 1, pkt.MACFromUint64(0x020000000000+uint64(i))), &v)
	}
	if micro, _ := sw.CacheSizes(); micro > 16 {
		t.Fatalf("microflow cache exceeded its limit: %d", micro)
	}
}

func TestMegaflowEvictionRespectsLimit(t *testing.T) {
	// One megaflow per destination MAC with a tiny limit forces eviction;
	// each of the 512 MACs misses the microflow level too.
	pl := macPipeline(512)
	opts := DefaultOptions()
	opts.MegaflowLimit = 64
	sw, err := New(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var v openflow.Verdict
	for i := 0; i < 512; i++ {
		sw.Process(ethPacket(t, 1, pkt.MACFromUint64(0x020000000000+uint64(i))), &v)
	}
	if _, mega := sw.CacheSizes(); mega > 70 {
		t.Fatalf("megaflow cache exceeded its limit: %d", mega)
	}
}

// TestEvictionIsDeterministic feeds two switches the same trace of more
// transport flows than either cache level holds: evicting in insertion order,
// they must serve every packet at the same level.
func TestEvictionIsDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.MicroflowLimit = 32
	opts.MegaflowLimit = 40
	var sws [2]*Switch
	for i := range sws {
		sw, err := New(firewallPipeline(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sws[i] = sw
	}
	web := pkt.IPv4FromOctets(192, 0, 2, 1)
	rng := rand.New(rand.NewSource(3))
	var v openflow.Verdict
	for i := 0; i < 5000; i++ {
		p := tcpPacket(t, 1, pkt.IPv4FromOctets(198, 51, 100, 7), web, uint16(1024+rng.Intn(120)), 80)
		for _, sw := range sws {
			sw.Process(clonePacket(p), &v)
		}
	}
	a, b := sws[0].Stats(), sws[1].Stats()
	if a != b {
		t.Fatalf("identical runs disagree: %+v vs %+v", a, b)
	}
	if a.Microflow == 0 || a.Megaflow == 0 || a.SlowPath == 0 {
		t.Fatalf("trace does not exercise every level: %+v", a)
	}
}

// TestRandomPipelineEquivalence fuzzes the cache hierarchy against the
// interpreter over random pipelines and random repeated traffic.
func TestRandomPipelineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 15; trial++ {
		pl := openflow.NewPipeline(4)
		tbl := pl.Table(0)
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			m := openflow.NewMatch()
			if rng.Intn(2) == 0 {
				m.Set(openflow.FieldTCPDst, uint64(rng.Intn(5)))
			}
			if rng.Intn(2) == 0 {
				m.SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, byte(rng.Intn(3)), 0, 0)), 16)
			}
			if rng.Intn(3) == 0 {
				m.Set(openflow.FieldInPort, uint64(1+rng.Intn(3)))
			}
			if m.IsEmpty() {
				m.Set(openflow.FieldIPSrc, uint64(rng.Intn(4)))
			}
			tbl.AddFlow(rng.Intn(50)+1, m, openflow.Apply(openflow.Output(uint32(1+rng.Intn(4)))))
		}
		tbl.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
		var packets []*pkt.Packet
		for i := 0; i < 60; i++ {
			packets = append(packets, tcpPacket(t, uint32(1+rng.Intn(3)),
				pkt.IPv4(rng.Intn(4)),
				pkt.IPv4FromOctets(10, byte(rng.Intn(3)), 0, byte(rng.Intn(3))),
				uint16(rng.Intn(3)), uint16(rng.Intn(5))))
		}
		checkAgainstInterpreter(t, pl, DefaultOptions(), packets)
	}
}

// TestGatewayStyleRewriteCaching checks that cached megaflows reproduce
// header rewrites (NAT-style set-field) correctly on cache hits.
func TestGatewayStyleRewriteCaching(t *testing.T) {
	pl := openflow.NewPipeline(4)
	pub := uint64(pkt.IPv4FromOctets(203, 0, 113, 50))
	pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(pkt.IPv4FromOctets(10, 0, 0, 5))),
		openflow.ApplyThenGoto(1, openflow.SetField(openflow.FieldIPSrc, pub)))
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	pl.AddTable(1).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Output(2)))
	sw, err := New(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 5), pkt.IPv4FromOctets(8, 8, 8, 8), 1234, 80)
		var v openflow.Verdict
		sw.Process(p, &v)
		if !v.Forwarded() || v.OutPorts[0] != 2 {
			t.Fatalf("iteration %d verdict %v", i, v.String())
		}
		pkt.ParseL4(p)
		if p.Headers.IPSrc != pkt.IPv4(pub) {
			t.Fatalf("iteration %d: NAT rewrite lost on cached path: %v", i, p.Headers.IPSrc)
		}
	}
	st := sw.Stats()
	if st.SlowPath != 1 || st.Microflow != 2 {
		t.Fatalf("cache levels: %+v", st)
	}
}

func BenchmarkCachedForwarding(b *testing.B) {
	pl := macPipeline(1024)
	sw, err := New(pl, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := ethPacket(b, 1, pkt.MACFromUint64(0x020000000000+77))
	var v openflow.Verdict
	sw.Process(clonePacket(p), &v) // warm the caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := *p
		q.Headers = pkt.Headers{}
		sw.ProcessUnlocked(&q, &v)
	}
}

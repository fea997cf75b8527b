package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/workload"
)

// Tests of the compiled cache key (keyEntry, snapshot.keyMask): where the
// cache arms and on which fields, that packets sharing a key are interchange-
// able — whichever installs the entry — and that a flow-mod which widens the
// key leaves nothing behind.

// TestCacheArming states, for the six bundled use cases and the decomposed
// ACL, whether the compiler arms the cache and which fields key it.
func TestCacheArming(t *testing.T) {
	ucs := bundledUseCases()
	cases := []struct {
		uc        *workload.UseCase
		decompose bool
		armed     bool
		key       string
	}{
		// One hash stage on eth_dst; its flood catch-all brings in_port along.
		{ucs[0], false, false, "in_port eth_dst"},
		// One LPM stage: the key is the RIB's longest prefix.
		{ucs[1], false, false, "ip_dst/24"},
		// One hash stage whose tail holds the in_port rule and the drop; the
		// backend split reads one bit of the source address.
		{ucs[2], false, false, "in_port ip_src/1 ip_dst/32 l4_dst"},
		// Decomposed into 38 stages, linked lists among them.
		{decomposedACL(), true, true, "ip_src/32 ip_dst/32 l4_dst"},
		// Four stages; the VLAN dispatch and the per-CE tables match the tag
		// and the source address whole (what pop_vlan and the NAT set-field
		// write needs no key bits of its own).
		{ucs[3], false, true, "in_port vlan_vid ip_src/32 ip_dst/32"},
		// Two hash stages, nothing above L2.
		{ucs[4], false, true, "in_port eth_dst eth_src"},
		// The four-field admission ACL in front of the RIB.
		{ucs[5], false, true, "ip_src/32 ip_dst/32 l4_src l4_dst"},
	}
	for _, c := range cases {
		name := c.uc.Name
		if c.decompose {
			name += "-decomposed"
		}
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Decompose = c.decompose
			opts.FlowCache = 1024
			dp, err := Compile(c.uc.Pipeline, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.decompose && dp.DecomposedTables() == 0 {
				t.Fatal("did not decompose")
			}
			key, why := dp.FlowCacheKey()
			if dp.FlowCacheEnabled() != c.armed || key != c.key || (why == "") != c.armed {
				t.Fatalf("armed=%v key=%q unarmed=%q; want armed=%v key=%q", dp.FlowCacheEnabled(), key, why, c.armed, c.key)
			}
			// Without the option nothing is derived at all.
			plain, err := Compile(c.uc.Pipeline, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if key, why := plain.FlowCacheKey(); plain.FlowCacheEnabled() || key != "" || why != "Options.FlowCache is off" {
				t.Fatalf("cache-less compile: key=%q unarmed=%q", key, why)
			}
		})
	}
}

// keyRig is one cached worker on a pipeline with the interpreter beside it.
type keyRig struct {
	t  *testing.T
	dp *Datapath
	w  *Worker
}

func newKeyRig(t *testing.T, pl *openflow.Pipeline) *keyRig {
	t.Helper()
	opts := DefaultOptions()
	opts.FlowCache = 64
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.FlowCacheEnabled() {
		_, why := dp.FlowCacheKey()
		t.Fatalf("pipeline does not arm the cache: %s", why)
	}
	w := dp.RegisterWorker().(*Worker)
	t.Cleanup(func() { dp.UnregisterWorker(w) })
	return &keyRig{t: t, dp: dp, w: w}
}

// send forwards one frame, a burst of its own, through the cached worker and
// requires the interpreter's verdict, headers and metadata.
func (r *keyRig) send(label string, frame []byte, inPort uint32) {
	r.t.Helper()
	p := pkt.Packet{Data: frame, InPort: inPort}
	vs := make([]openflow.Verdict, 1)
	r.w.Enter()
	r.w.ProcessBurst([]*pkt.Packet{&p}, vs)
	r.w.Exit()
	// Parsed as deep as the datapath parses, so the header views compare.
	ref := pkt.Packet{Data: frame, InPort: inPort}
	pkt.ParseTo(&ref, r.dp.ParserLayer())
	var want openflow.Verdict
	openflow.NewInterpreter(r.dp.Pipeline()).Process(&ref, &want, nil)
	if !sameVerdict(&vs[0], &want) || p.Headers != ref.Headers || p.Metadata != ref.Metadata {
		key, _ := r.dp.FlowCacheKey()
		r.t.Fatalf("%s: cached path says %s and left headers %+v; the interpreter %s, %+v (key: %s, stats %+v)",
			label, &vs[0], p.Headers, &want, ref.Headers, key, r.dp.FlowCacheStats())
	}
}

// TestPatchAliasing is the regression test of the write-set a masked entry
// replays: it holds the writes the installing walk executed, not the
// difference they made, so a set-field to the value that packet already
// carried is in it all the same, and a field the pipeline only writes needs
// no key bits.  Each case rewrites a field the pipeline never matches, sends
// a frame that already carries the written value, then its flow with another
// value, then the first again — and the three in the other order on a cold
// cache.  The frames share one entry (a miss and two hits), each served the
// interpreter's headers; pop_vlan's two frames, one tagged and one not,
// differ in VLAN presence, which is always keyed, and are two entries.
func TestPatchAliasing(t *testing.T) {
	x, y := pkt.MACFromUint64(0x02000000aa01), pkt.MACFromUint64(0x02000000bb02)
	b := pkt.NewBuilder(128)
	tcp := func(eth pkt.EthernetOpts, src pkt.IPv4) []byte {
		return pkt.Clone(b.TCPPacket(eth, pkt.IPv4Opts{Src: src, Dst: 0x0a000002}, pkt.L4Opts{Src: 1234, Dst: 80}))
	}
	cases := []struct {
		name    string
		action  openflow.Action
		then    openflow.Field // what table 1 matches (its value taken from the frames)
		key     string
		entries uint64
		same    []byte // already carries what the action writes
		other   []byte
	}{
		{"set_field(eth_dst)", openflow.SetField(openflow.FieldEthDst, x.Uint64()), openflow.FieldEthType, "in_port eth_type", 1,
			tcp(pkt.EthernetOpts{Dst: x}, 1), tcp(pkt.EthernetOpts{Dst: y}, 1)},
		{"push_vlan", openflow.PushVLAN(100), openflow.FieldEthType, "in_port eth_type", 1,
			tcp(pkt.EthernetOpts{VLAN: 100}, 1), tcp(pkt.EthernetOpts{VLAN: 200}, 1)},
		{"pop_vlan", openflow.PopVLAN(), openflow.FieldEthType, "in_port eth_type", 2,
			tcp(pkt.EthernetOpts{}, 1), tcp(pkt.EthernetOpts{VLAN: 200}, 1)},
		// (Table 1 reads an L3 field here, or the specialized parser would
		// stop at L2 and every frame's ip_src would read zero.)
		{"set_field(ip_src)", openflow.SetField(openflow.FieldIPSrc, 0x0a000001), openflow.FieldIPProto, "in_port ip_proto", 1,
			tcp(pkt.EthernetOpts{}, 0x0a000001), tcp(pkt.EthernetOpts{}, 0x0a000009)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, order := range [][2][]byte{{c.same, c.other}, {c.other, c.same}} {
				pl := openflow.NewPipeline(2)
				pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldInPort, 1), openflow.ApplyThenGoto(1, c.action))
				parsed := pkt.Packet{Data: c.same}
				pkt.ParseL4(&parsed)
				pl.AddTable(1).AddFlow(10, openflow.NewMatch().Set(c.then, openflow.Extract(&parsed, c.then)), openflow.Apply(openflow.Output(2)))
				r := newKeyRig(t, pl)
				if key, _ := r.dp.FlowCacheKey(); key != c.key {
					t.Fatalf("compiled key %q, want %q", key, c.key)
				}
				r.send("first", order[0], 1)
				r.send("second", order[1], 1)
				r.send("first again", order[0], 1)
				if st := r.dp.FlowCacheStats(); st.Misses != c.entries || st.Hits != 3-c.entries {
					t.Fatalf("want %d entries for the three frames: %+v", c.entries, st)
				}
			}
		})
	}
}

// TestFloodKeysInPort: a flood's port list is a function of the ingress port
// whether or not any entry matches it, and on a two-port switch it is a
// single port — a verdict the cache memoizes.  The same flow arriving on the
// other port must not be served it (and sent back out its ingress).
func TestFloodKeysInPort(t *testing.T) {
	pl := openflow.NewPipeline(2)
	pl.Table(0).AddFlow(10, openflow.NewMatch().Set(openflow.FieldEthType, 0x0800), openflow.Goto(1))
	pl.AddTable(1).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Flood()))
	r := newKeyRig(t, pl)
	if key, _ := r.dp.FlowCacheKey(); key != "in_port eth_type" {
		t.Fatalf("compiled key %q: in_port must join it for the flood", key)
	}
	frame := pkt.Clone(pkt.NewBuilder(128).TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 1, Dst: 2}, pkt.L4Opts{Src: 3, Dst: 4}))
	for _, port := range []uint32{1, 2, 1, 2} {
		r.send(fmt.Sprintf("from port %d", port), frame, port)
	}
	if st := r.dp.FlowCacheStats(); st.Hits != 2 || st.Installs != 2 {
		t.Fatalf("one entry per ingress port, each hit once: %+v", st)
	}
}

// TestKeyWideningBarrier asserts a flow-mod that makes the pipeline read bits
// the compiled key does not hold is never outrun by an entry keyed without
// them: a source sweep over one destination shares one entry under the RIB's
// /16s, a /24 inside it widens the key behind a barrier and the very next
// burst observes the new route; deleting it falls back — the key stays wide.
func TestKeyWideningBarrier(t *testing.T) {
	pl, rib := twoStage(4)
	// LPM routing over the destination; priorities equal prefix lengths.
	for i := 0; i < 8; i++ {
		rib.AddFlow(16,
			openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(0xcb000000+uint32(i)<<16), 16),
			openflow.Apply(openflow.Output(2)))
	}
	rib.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	opts := DefaultOptions()
	opts.FlowCache = 1024
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := dp.RegisterWorker().(*Worker)
	defer dp.UnregisterWorker(w)

	const dst = 0xcb030a01 // 203.3.10.1, inside the /16 towards port 2
	burstOut := func(srcBase uint32) uint32 {
		const burst = 16
		b := pkt.NewBuilder(128)
		packets := make([]pkt.Packet, burst)
		ps := make([]*pkt.Packet, burst)
		vs := make([]openflow.Verdict, burst)
		for j := 0; j < burst; j++ {
			packets[j] = pkt.Packet{
				Data:   pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: pkt.IPv4(srcBase + uint32(j)), Dst: dst}, pkt.L4Opts{Src: 9, Dst: 80})),
				InPort: 1,
			}
			ps[j] = &packets[j]
		}
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
		out := uint32(0)
		for j := range vs {
			if len(vs[j].OutPorts) != 1 {
				t.Fatalf("packet %d: unexpected verdict %s", j, vs[j].String())
			}
			if out == 0 {
				out = vs[j].OutPorts[0]
			} else if vs[j].OutPorts[0] != out {
				t.Fatalf("split burst: ports %d and %d", out, vs[j].OutPorts[0])
			}
		}
		return out
	}
	wantKey := func(key string) {
		t.Helper()
		if got, _ := dp.FlowCacheKey(); got != key {
			t.Fatalf("compiled key %q, want %q", got, key)
		}
	}

	// Warm the cache on the /16 route, then verify fresh sources are served
	// from the one entry.
	wantKey("in_port ip_dst/16")
	if got := burstOut(0x0a000000); got != 2 {
		t.Fatalf("pre-update egress %d, want 2", got)
	}
	if got := burstOut(0x0a010000); got != 2 {
		t.Fatalf("pre-update egress %d, want 2", got)
	}
	if st := dp.FlowCacheStats(); st.Hits != 16 || st.Flushes != 0 {
		t.Fatalf("source-varied repeat should hit the first burst's entry: %+v", st)
	}

	// A more specific route supersedes the memoized verdict.
	if err := dp.AddFlow(1, openflow.NewEntry(24,
		openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0xcb030a00, 24),
		openflow.Apply(openflow.Output(3)))); err != nil {
		t.Fatal(err)
	}
	wantKey("in_port ip_dst/24")
	if got := burstOut(0x0a020000); got != 3 {
		t.Fatalf("post-update egress %d, want 3 (entry keyed on the /16 served?)", got)
	}
	if st := dp.FlowCacheStats(); st.Flushes != 1 || st.Revalidated != 0 {
		t.Fatalf("widening the key must be a barrier: %+v", st)
	}
	// And deleting it must fall back to the /16 again — a scoped mod now that
	// the key holds the /24's bits: the other destinations' entries survive.
	if _, err := dp.DeleteFlow(1, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0xcb030a00, 24), 24); err != nil {
		t.Fatal(err)
	}
	wantKey("in_port ip_dst/24")
	if got := burstOut(0x0a030000); got != 2 {
		t.Fatalf("post-delete egress %d, want 2", got)
	}
	if st := dp.FlowCacheStats(); st.Flushes != 1 {
		t.Fatalf("the delete is inside the key and must not flush: %+v", st)
	}
}

// TestKeyWideningGracePeriod pins the order inside a key-widening AddFlow
// against a burst in flight: the wider key is published, and every worker
// inside a bracket waited for, before the new entry's table becomes visible.
// Otherwise a worker still probing under the narrower key walks the new
// table, memoizes frame A's verdict under a key that cannot tell A from B,
// and serves it to B — a verdict right under neither configuration.  The test
// holds a worker inside its bracket on the old snapshot, starts the mod, and
// drives A then B through the burst engine exactly as a burst of more than
// MaxBurst packets would (one snapshot, consecutive sub-bursts).
func TestKeyWideningGracePeriod(t *testing.T) {
	b := pkt.NewBuilder(128)
	tcp := func(dst uint32, dport uint16) []byte {
		return pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 0x0a000001, Dst: pkt.IPv4(dst)}, pkt.L4Opts{Src: 9, Dst: dport}))
	}
	cases := []struct {
		name     string
		table1   func(rib *openflow.FlowTable)
		mod      *openflow.FlowEntry
		key, wid string
		a, b     []byte // alias under key; only a matches mod
	}{
		// Rebuild path: a first match on tcp_dst in a direct-code table that
		// already parses L4.
		{"tcp_dst", func(rib *openflow.FlowTable) {
			rib.AddFlow(10, openflow.NewMatch().Set(openflow.FieldTCPSrc, 9), openflow.Apply(openflow.Output(2)))
		}, openflow.NewEntry(20, openflow.NewMatch().Set(openflow.FieldTCPDst, 22), openflow.Apply(openflow.Drop())),
			"in_port l4_src", "in_port l4_src l4_dst", tcp(0xcb030a01, 22), tcp(0xcb030a01, 80)},
		// Shadow-swap path: a longer prefix than any in an LPM table.
		{"longer-prefix", func(rib *openflow.FlowTable) {
			for i := 0; i < 8; i++ {
				rib.AddFlow(16, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(0xcb000000+uint32(i)<<16), 16),
					openflow.Apply(openflow.Output(2)))
			}
			rib.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
		}, openflow.NewEntry(24, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0xcb030a00, 24), openflow.Apply(openflow.Drop())),
			"in_port ip_dst/16", "in_port ip_dst/24", tcp(0xcb030a01, 80), tcp(0xcb03ff01, 80)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, rib := twoStage(4)
			c.table1(rib)
			opts := DefaultOptions()
			opts.FlowCache = 64
			dp, err := Compile(pl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if key, why := dp.FlowCacheKey(); key != c.key || why != "" {
				t.Fatalf("compiled key %q (%s), want %q armed", key, why, c.key)
			}
			w := dp.RegisterWorker().(*Worker)
			defer dp.UnregisterWorker(w)
			// out forwards one frame as a sub-burst under the given snapshot.
			out := func(sn *snapshot, frame []byte) uint32 {
				p := pkt.Packet{Data: frame, InPort: 1}
				vs := make([]openflow.Verdict, 1)
				dp.processBurst(&w.scratch, sn, w.cache, []*pkt.Packet{&p}, vs)
				if len(vs[0].OutPorts) == 1 {
					return vs[0].OutPorts[0]
				}
				return 0
			}

			w.Enter()
			old := dp.snap.Load()
			done := make(chan error, 1)
			go func() { done <- dp.AddFlow(1, c.mod) }()
			for deadline := time.Now().Add(10 * time.Second); dp.snap.Load() == old; runtime.Gosched() {
				select {
				case err := <-done:
					t.Fatalf("AddFlow returned (%v) while a worker was inside a bracket entered under the narrower key", err)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("the wider key was never published")
				}
			}
			if mid := dp.snap.Load(); mid.keyMask.String() != c.wid || mid.gen != old.gen {
				t.Fatalf("intermediate snapshot: key %q gen %d, want %q at gen %d", mid.keyMask, mid.gen, c.wid, old.gen)
			}
			// The burst in flight still sees the old table, whichever frame
			// goes first.
			if a, b := out(old, c.a), out(old, c.b); a != 2 || b != 2 {
				t.Fatalf("in-flight burst under the old snapshot: a -> %d, b -> %d, want the old table's 2, 2", a, b)
			}
			select {
			case err := <-done:
				t.Fatalf("AddFlow returned (%v) before the worker's quiescent point", err)
			default:
			}
			w.Exit()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			w.Enter()
			sn := dp.snap.Load()
			a, b := out(sn, c.a), out(sn, c.b)
			w.Exit()
			if a != 0 || b != 2 {
				t.Fatalf("after the mod: a -> %d, b -> %d, want dropped, 2", a, b)
			}
			if st := dp.FlowCacheStats(); st.Flushes != 1 || st.Revalidated != 0 {
				t.Fatalf("widening the key must be a barrier: %+v", st)
			}
		})
	}
}

// TestStaticKeySweep is the adversarial acceptance test: a 65,536-wide sweep
// of fields the pipeline never reads is 65,536 distinct five-tuples and one
// compiled key, so one cache level absorbs it — the first burst's packets
// miss (they all probe before any of them installs), every later one hits.
func TestStaticKeySweep(t *testing.T) {
	portsec := workload.L2PortSecurityUseCase(64, 4)
	gw := workload.GatewayUseCase(workload.GatewayConfig{CEs: 3, UsersPerCE: 5, Prefixes: 300, Seed: 5})
	cases := []struct {
		uc           *workload.UseCase
		key          string
		width, ports int
	}{
		// One station pair of the two-hash-stage bridge, which reads nothing
		// above L2: sweep IP source x L4 source port.
		{portsec, "in_port eth_dst eth_src", 256, 256},
		// One admitted user of the gateway, whose NAT and routing read
		// addresses only: sweep the L4 source port.
		{gw, "in_port vlan_vid ip_src/32 ip_dst/32", 1, 1 << 16},
	}
	for _, c := range cases {
		t.Run(c.uc.Name, func(t *testing.T) {
			dp, w := fcWorker(t, c.uc, 4096)
			defer dp.UnregisterWorker(w)
			if key, why := dp.FlowCacheKey(); key != c.key || why != "" {
				t.Fatalf("compiled key %q (%s), want %q armed", key, why, c.key)
			}
			plain, err := Compile(c.uc.Pipeline, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}

			// Template flow: a flow of the use case's own trace, so the sweep
			// traverses a real forwarding path.
			var probe pkt.Packet
			c.uc.Trace(4).Next(&probe)
			pkt.ParseL4(&probe)
			h := &probe.Headers
			flow := pktgen.Flow{InPort: probe.InPort, SrcMAC: h.EthSrc, DstMAC: h.EthDst, VLAN: h.VLANID,
				SrcIP: pkt.IPv4FromOctets(10, 200, 0, 1), DstIP: pkt.IPv4FromOctets(203, 0, 113, 9), SrcPort: 7, DstPort: 80}
			if h.Has(pkt.ProtoIPv4) {
				flow.SrcIP, flow.DstIP = h.IPSrc, h.IPDst
			}
			sweep, err := pktgen.NewSweepTrace(flow, c.width, c.ports, 64)
			if err != nil {
				t.Fatal(err)
			}
			if sweep.NumFlows() != 1<<16 {
				t.Fatalf("sweep is %d flows wide", sweep.NumFlows())
			}

			const total = 8192
			const burst = 32
			packets := make([]pkt.Packet, burst)
			ps := make([]*pkt.Packet, burst)
			for i := range packets {
				ps[i] = &packets[i]
			}
			vs := make([]openflow.Verdict, burst)
			for sent := 0; sent < total; sent += burst {
				for j := 0; j < burst; j++ {
					sweep.Next(&packets[j])
				}
				w.Enter()
				w.ProcessBurst(ps, vs)
				w.Exit()
				// Spot-check correctness against the plain walk.
				if sent%1024 == 0 {
					var ref openflow.Verdict
					p := pkt.Packet{Data: packets[0].Data, InPort: packets[0].InPort}
					plain.Process(&p, &ref)
					if !sameVerdict(&vs[0], &ref) || !ref.Forwarded() {
						t.Fatalf("packet %d: sweep verdict %s, plain %s (want both forwarded)", sent, vs[0].String(), ref.String())
					}
				}
			}
			st := dp.FlowCacheStats()
			if st.Misses != burst || st.Hits != total-burst || st.Installs != burst || st.Fills != 1 {
				t.Fatalf("want the first burst's %d packets to miss, one entry, and %d hits: %+v", burst, total-burst, st)
			}
			if ratio := float64(st.Hits) / total; ratio < 0.95 {
				t.Fatalf("hit ratio %.3f under the sweep", ratio)
			}
		})
	}
}

// TestKeyLayout holds keyLayout to the layout's word expressions: every field
// has a slot as wide as the field; the covered fields but metadata sit in
// words 0–4, the words flowKey.load packs, and every other field after them;
// the slots are disjoint (the L4 aliases aside) and clear of keyAlways; and
// each reads back the packet's own value, through load and through a
// one-field gather.  A full mask renders the cache's slots by name, keyAlways
// as nothing.
func TestKeyLayout(t *testing.T) {
	p := pkt.Packet{InPort: 0x89abcdef, Metadata: 0x0123456789abcdef}
	h := &p.Headers
	h.EthDst, h.EthSrc = pkt.MACFromUint64(0xf1e2d3c4b5a6), pkt.MACFromUint64(0x0badc0ffee11)
	h.EthType, h.VLANID, h.VLANPCP, h.IPProto = 0x88a8, 0xabc, 5, 0x84
	h.IPSrc, h.IPDst, h.L4Src, h.L4Dst = 0xdeadbeef, 0xfeedface, 0xa55a, 0x5aa5
	h.IPDSCP, h.IPECN, h.TCPFlags, h.ICMPType, h.ICMPCode = 0x2d, 2, 0xa5c, 0x8e, 0x71
	h.ARPOp, h.ARPSPA, h.ARPTPA = 0xbeef, 0xc0a80001, 0x0a0b0c0d
	h.Proto, h.Parsed = 0xffff, 0xff
	full := flowKey{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	var k flowKey
	k.load(&p, &full)
	var seen [layoutWords]uint64
	copy(seen[:], keyAlways[:])
	if k.and(&keyAlways) != keyAlways {
		t.Fatalf("presence and parse depth are not where keyAlways says: %x", k)
	}
	for f := openflow.Field(0); f < openflow.NumFields; f++ {
		l := keyLayout[f]
		if l.bits != f.Width() {
			t.Fatalf("%v: the slot is %d bits wide", f, l.bits)
		}
		cached := cacheCoveredFields.Has(f) && f != openflow.FieldMetadata
		if cached != (int(l.word) < len(k)) {
			t.Fatalf("%v: covered=%v but the slot is in word %d", f, cached, l.word)
		}
		value := openflow.Extract(&p, f)
		if cached && keyedBits(&k, f) != value {
			t.Fatalf("%v: slot reads %#x, the packet says %#x", f, keyedBits(&k, f), value)
		}
		m := openflow.NewMatch().Set(f, value)
		g, ok := newKeyGather(m)
		if want := g.entry(m); !ok || g.packet(&p) != want || want == (hashKey{}) {
			t.Fatalf("%v: the gather reads %x, the packet's value gathers to %x", f, g.packet(&p), want)
		}
		var unused, slot [layoutWords]uint64
		keyBits(f, 0, f.FullMask(), unused[:], slot[:])
		for w := range slot {
			if l.name != "" && seen[w]&slot[w] != 0 {
				t.Fatalf("%v overlaps an earlier slot", f)
			}
			seen[w] |= slot[w]
		}
	}
	if !strings.Contains(full.String(), "l4_dst") || keyAlways.String() != "" {
		t.Fatalf("key rendering: %q / %q", full.String(), keyAlways.String())
	}
}

// FuzzCompiledKeyAliasing is the aliasing property of
// TestScopedInvalidationDifferential with the choices handed to the fuzzer:
// which rig, which seeded flow-mod sequence and how much of it, and which
// bits outside the compiled key each alias flips.  After every mod, frames
// that agree on the key as compiled at that point are sent back to back in
// both orders through caches that have seen nothing but earlier aliases, and
// every one must get the interpreter's verdict and headers for itself.
func FuzzCompiledKeyAliasing(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(6), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), uint8(2), uint8(12), []byte{0x01, 0x00, 0x80, 0x00, 0x00, 0x01, 0x00, 0xff, 0x10})
	f.Add(uint8(2), uint8(3), uint8(20), []byte{0xaa, 0x55})
	f.Add(uint8(3), uint8(4), uint8(3), []byte{})
	cases := rigCases()
	f.Fuzz(func(t *testing.T, rig, seed, mods uint8, flips []byte) {
		c := cases[int(rig)%len(cases)]
		frames, inPorts := c.frames(24)
		r := newScopeRig(t, c.pl, c.decompose, 64, frames, inPorts)
		rng := rand.New(rand.NewSource(int64(seed)))
		r.extra = rand.New(rand.NewSource(int64(seed) ^ 0x6578747261))
		next := 0
		flip := func() (x uint64) {
			if len(flips) == 0 {
				return rng.Uint64()
			}
			for b := 0; b < 8; b++ {
				x = x<<8 | uint64(flips[next%len(flips)])
				next++
			}
			return x
		}
		picks := make([]int, len(frames))
		for i := range picks {
			picks[i] = i
		}
		r.checkAliases("cold", picks, flip)
		for n := 1; n <= int(mods)%24; n++ {
			what := r.randomMod(rng)
			r.checkAliases(fmt.Sprintf("seed %d, after mod %d (%s)", seed, n, what), picks, flip)
		}
	})
}

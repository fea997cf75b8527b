package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// tracePipeline builds a two-stage pipeline: table 0 matches the in-port and
// jumps to table 1, which forwards one TCP destination port and misses the
// rest (miss punts to the controller).
func tracePipeline() *openflow.Pipeline {
	pl := openflow.NewPipeline(4)
	pl.Miss = openflow.MissController
	t0 := pl.AddTable(0)
	t0.AddFlow(10, openflow.NewMatch().Set(openflow.FieldInPort, 1), openflow.Goto(1))
	t1 := pl.AddTable(1)
	t1.AddFlow(20, openflow.NewMatch().Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(2)))
	return pl
}

func TestTraceExplainsWalk(t *testing.T) {
	opts := DefaultOptions()
	opts.FlowCache = 256
	dp, err := Compile(tracePipeline(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// A matching packet: two steps, both matched, forwarded out port 2.
	p := tcpPacket(t, 1, 0x0a000001, 0x0a000002, 1234, 80)
	res := dp.Trace(p)
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %+v", res.Steps)
	}
	if !res.Steps[0].Matched || !res.Steps[0].HasNext || res.Steps[0].Next != 1 {
		t.Fatalf("step 0 = %+v", res.Steps[0])
	}
	if !res.Steps[1].Matched || res.Steps[1].Table != 1 {
		t.Fatalf("step 1 = %+v", res.Steps[1])
	}
	if !res.Verdict.Forwarded() || res.Verdict.OutPorts[0] != 2 {
		t.Fatalf("verdict = %+v", res.Verdict)
	}
	// The trace must agree with the forwarding path.
	var v openflow.Verdict
	dp.Process(tcpPacket(t, 1, 0x0a000001, 0x0a000002, 1234, 80), &v)
	if !v.Equivalent(&res.Verdict) {
		t.Fatalf("trace verdict %v != forwarding verdict %v", res.Verdict, v)
	}
	// The trace names the compiled cache key: what the two stages read.
	if !res.Armed || res.CacheKey != "in_port l4_dst" || res.Unarmed != "" {
		t.Fatalf("two-stage pipeline: armed=%v key=%q unarmed=%q", res.Armed, res.CacheKey, res.Unarmed)
	}
	out := res.String()
	for _, want := range []string{"table 0", "table 1", "output", "cache: armed, key: in_port l4_dst\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, out)
		}
	}
	// Without Options.FlowCache the trace says why nothing is cached.
	plain, err := Compile(tracePipeline(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out := plain.Trace(tcpPacket(t, 1, 0x0a000001, 0x0a000002, 1234, 80)).String(); !strings.Contains(out, "cache: not armed (Options.FlowCache is off)\n") {
		t.Fatalf("rendered trace of a cache-less datapath:\n%s", out)
	}

	// A missing packet: the walk ends in a miss punt at table 1.
	res = dp.Trace(tcpPacket(t, 1, 0x0a000001, 0x0a000002, 1234, 443))
	if len(res.Steps) != 2 || res.Steps[1].Matched {
		t.Fatalf("miss steps = %+v", res.Steps)
	}
	if !res.Verdict.ToController || res.Verdict.PuntTable != 1 {
		t.Fatalf("miss verdict = %+v", res.Verdict)
	}
	if !strings.Contains(res.String(), "punt to controller") {
		t.Fatalf("rendered miss trace:\n%s", res.String())
	}
}

// TestTraceDoesNotPerturbCounters pins the admin-replay contract: with
// per-flow counters on, a trace must not bump them (only forwarding does).
func TestTraceDoesNotPerturbCounters(t *testing.T) {
	opts := DefaultOptions()
	opts.UpdateCounters = true
	dp, err := Compile(tracePipeline(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.opts.UpdateCounters {
		t.Fatal("opts.UpdateCounters = false with UpdateCounters on")
	}
	var v openflow.Verdict
	dp.Process(tcpPacket(t, 1, 0x0a000001, 0x0a000002, 1234, 80), &v)
	before := dp.FlowSamples(nil)
	_ = dp.Trace(tcpPacket(t, 1, 0x0a000001, 0x0a000002, 1234, 80))
	after := dp.FlowSamples(nil)
	if len(before) != 2 || len(after) != 2 {
		t.Fatalf("samples: %d then %d entries", len(before), len(after))
	}
	for i := range before {
		if before[i].Entry != after[i].Entry {
			t.Fatalf("sample %d identity changed across trace", i)
		}
		if before[i].Packets != after[i].Packets || before[i].Bytes != after[i].Bytes {
			t.Fatalf("trace perturbed counters of sample %d: %+v -> %+v", i, before[i], after[i])
		}
	}
	// The forwarding pass above is visible in the samples: exactly one
	// packet through each matched entry.
	var matched int
	for _, s := range before {
		if s.Packets == 1 {
			matched++
		}
	}
	if matched != 2 {
		t.Fatalf("expected 2 entries with 1 packet, samples: %+v", before)
	}
}

func TestFlowSamplesIdentityTracksReplace(t *testing.T) {
	dp, err := Compile(tracePipeline(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := dp.FlowSamples(nil)
	// Replacing an entry (same table/priority/match) installs a fresh
	// *FlowEntry: samplers must see a new identity.
	if err := dp.AddFlow(1, openflow.NewEntry(20, openflow.NewMatch().Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(3)))); err != nil {
		t.Fatal(err)
	}
	after := dp.FlowSamples(nil)
	if len(before) != len(after) {
		t.Fatalf("entry count changed: %d -> %d", len(before), len(after))
	}
	changed := 0
	beforeSet := map[*openflow.FlowEntry]bool{}
	for _, s := range before {
		beforeSet[s.Entry] = true
	}
	for _, s := range after {
		if !beforeSet[s.Entry] {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("replace changed %d identities, want 1", changed)
	}
}

// stepFacts is what the cycle model reads of one TraceStep.
type stepFacts struct {
	Table    openflow.TableID
	Template TemplateKind
	Examined int
	Offset   uint64
	Outcome  openflow.Step
}

func factsOf(steps []TraceStep) []stepFacts {
	out := make([]stepFacts, len(steps))
	for i, s := range steps {
		out[i] = stepFacts{s.Table, s.Template, s.Examined, s.Offset, s.Outcome}
	}
	return out
}

// hashFold is where the cycle model places a compound-hash probe of key.
func hashFold(k hashKey) uint64 { return k.W0 ^ k.W1<<7 ^ k.W2<<13 ^ k.W3<<23 }

// TestTraceRecordsWhatLookupsExamined pins the per-step record the cycle model
// prices, on every template: the rules direct code tested, whether a compound
// hash was probed and the fold of its key, the DIR-24-8 levels an LPM lookup
// read and its address, the tuples the linked list probed and the packet's
// ip_dst, and how the matched entry's instructions ended the step.
func TestTraceRecordsWhatLookupsExamined(t *testing.T) {
	const (
		next     = openflow.StepNext
		dropped  = openflow.StepDropped
		terminal = openflow.StepTerminal
	)
	check := func(t *testing.T, dp *Datapath, label string, p *pkt.Packet, want []stepFacts) {
		t.Helper()
		if got := factsOf(dp.Trace(p).Steps); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %+v\n want %+v", label, got, want)
		}
	}

	t.Run("l3-acl", func(t *testing.T) {
		uc := workload.L3ACLRouterUseCase(16, 1000, 8, 2016)
		dp, err := Compile(uc.Pipeline, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		acl := uc.Pipeline.Table(0).Entries()[0].Match
		src, _, _ := acl.Get(openflow.FieldIPSrc)
		dst, _, _ := acl.Get(openflow.FieldIPDst)
		sport, _, _ := acl.Get(openflow.FieldTCPSrc)
		hash := dp.trampolines[0].load().(*hashTable)
		fold := func(p *pkt.Packet) uint64 {
			q := clonePacket(p)
			pkt.ParseTo(q, pkt.LayerL4)
			return hashFold(hash.gather.packet(q))
		}

		permitted := tcpPacket(t, 1, pkt.IPv4(src), pkt.IPv4(dst), uint16(sport), 80)
		check(t, dp, "permitted, /24 or shorter route", clonePacket(permitted), []stepFacts{
			{0, TemplateHash, 1, fold(permitted), next},
			{1, TemplateLPM, 1, dst, terminal},
		})
		denied := tcpPacket(t, 1, pkt.IPv4FromOctets(203, 0, 113, 9), pkt.IPv4(dst), uint16(sport), 80)
		check(t, dp, "denied by the catch-all", clonePacket(denied), []stepFacts{
			{0, TemplateHash, 1, fold(denied), dropped},
		})
		check(t, dp, "no TCP header: no probe", udpVlanPacket(t, 1, 0, pkt.IPv4(src), pkt.IPv4(dst), uint16(sport), 80), []stepFacts{
			{0, TemplateHash, 0, 0, dropped},
		})

		// A /28 under the permitted address puts it behind a tbl8 group.
		m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, dst&^0xf, 28)
		if err := dp.AddFlow(1, openflow.NewEntry(28, m, openflow.Apply(openflow.Output(7)))); err != nil {
			t.Fatal(err)
		}
		check(t, dp, "permitted, /28 route", clonePacket(permitted), []stepFacts{
			{0, TemplateHash, 1, fold(permitted), next},
			{1, TemplateLPM, 2, dst, terminal},
		})
	})

	t.Run("loadbalancer-decomposed", func(t *testing.T) {
		// Decompose has nothing to do on the load balancer: one compound
		// hash over the services, whose tail holds the in_port 2 rule and
		// the drop.  Every walk is one hash step; a miss runs the tail.
		opts := DefaultOptions()
		opts.Decompose = true
		dp, err := Compile(workload.LoadBalancerUseCase(3).Pipeline, opts)
		if err != nil {
			t.Fatal(err)
		}
		hash := dp.trampolines[0].load().(*hashTable)
		fold := func(p *pkt.Packet) uint64 {
			q := clonePacket(p)
			pkt.ParseTo(q, pkt.LayerL4)
			return hashFold(hash.gather.packet(q))
		}
		service := pkt.IPv4FromOctets(198, 51, 0, 1)
		web := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 1), service, 1234, 80)
		check(t, dp, "web request: a band hit", clonePacket(web), []stepFacts{{0, TemplateHash, 1, fold(web), terminal}})
		reply := tcpPacket(t, 2, service, pkt.IPv4FromOctets(10, 0, 0, 1), 80, 1234)
		check(t, dp, "backend reply: the tail's in_port rule", clonePacket(reply), []stepFacts{{0, TemplateHash, 1, fold(reply), terminal}})
		check(t, dp, "backend reply without TCP: no probe", udpVlanPacket(t, 2, 0, service, pkt.IPv4FromOctets(10, 0, 0, 1), 53, 1234),
			[]stepFacts{{0, TemplateHash, 0, 0, terminal}})
		ssh := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 1), service, 1234, 22)
		check(t, dp, "non-web traffic: the tail's drop", clonePacket(ssh), []stepFacts{{0, TemplateHash, 1, fold(ssh), dropped}})
	})

	t.Run("acl-decomposed", func(t *testing.T) {
		opts := DefaultOptions()
		opts.Decompose = true
		dp, err := Compile(decomposedACL().Pipeline, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dp.DecomposedTables() == 0 {
			t.Fatal("the ACL did not decompose")
		}
		// Which table takes which key, and in which order a dispatch
		// table's equal-priority rules sit, is the decomposer's choice made
		// afresh each run: read the walk off the decomposed tables.  Each
		// step's template is the compiler's; what it examined follows from
		// the rule the step matched.  tuples is what the final linked-list
		// step probes.
		walk := func(p *pkt.Packet, tuples int) []stepFacts {
			q := clonePacket(p)
			pkt.ParseTo(q, pkt.LayerL4)
			var facts []stepFacts
			for id := openflow.TableID(0); ; {
				kind, _ := dp.TableTemplate(id)
				f := stepFacts{id, kind, 0, 0, next}
				var hit *openflow.FlowEntry
				for i, e := range dp.Pipeline().Table(id).Entries() {
					if e.Match.Matches(q, nil) {
						f.Examined, hit = i+1, e
						break
					}
				}
				switch kind {
				case TemplateHash:
					f.Examined, f.Offset = 1, hashFold(dp.trampolines[id].load().(*hashTable).gather.packet(q))
				case TemplateLinkedList:
					f.Examined, f.Offset = tuples, uint64(q.Headers.IPDst)
				}
				if !hit.Instructions.HasGoto {
					f.Outcome = dropped
					return append(facts, f)
				}
				facts = append(facts, f)
				id = hit.Instructions.GotoTable
			}
		}
		kinds := func(facts []stepFacts) []TemplateKind {
			var ks []TemplateKind
			for _, f := range facts {
				ks = append(ks, f.Template)
			}
			return ks
		}
		// UDP to port 25 dispatches on udp_dst, then on ip_src, then hashes
		// ip_dst into a linked list.  To 192.0.2.13 the list's first tuple
		// holds the winning wildcard; to 192.0.2.12 the tcp_dst tuple is
		// probed first, and misses.
		path := []TemplateKind{TemplateDirectCode, TemplateDirectCode, TemplateHash, TemplateLinkedList}
		for _, c := range []struct {
			label    string
			src, dst pkt.IPv4
			tuples   int
		}{
			{"udp 25 to 192.0.2.13", pkt.IPv4FromOctets(203, 0, 113, 1), pkt.IPv4FromOctets(192, 0, 2, 13), 1},
			{"udp 25 to 192.0.2.12", pkt.IPv4FromOctets(203, 0, 113, 4), pkt.IPv4FromOctets(192, 0, 2, 12), 2},
		} {
			p := udpVlanPacket(t, 1, 0, c.src, c.dst, 1234, 25)
			want := walk(p, c.tuples)
			if got := kinds(want); !reflect.DeepEqual(got, path) {
				t.Fatalf("%s: the walk takes %v, want %v", c.label, got, path)
			}
			check(t, dp, c.label, p, want)
		}
	})

	t.Run("gateway-cached", func(t *testing.T) {
		// Trace never probes the cache a Process on the same frame fills:
		// it records every table step, as a twin without a cache does.
		uc := workload.GatewayUseCase(workload.GatewayConfig{CEs: 4, UsersPerCE: 8, Prefixes: 500, Seed: 3})
		opts := DefaultOptions()
		opts.FlowCache = 1024
		dp, err := Compile(uc.Pipeline, opts)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := Compile(uc.Pipeline, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !dp.snap.Load().armed {
			t.Fatal("the gateway did not arm its cache")
		}
		var p pkt.Packet
		uc.Trace(16).Next(&p)
		frame := func() *pkt.Packet { return &pkt.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort} }
		var v openflow.Verdict
		dp.Process(frame(), &v)
		dp.Process(frame(), &v)
		if st := dp.FlowCacheStats(); st.Hits == 0 {
			t.Fatalf("two Process calls on one frame: %+v, want a hit", st)
		}
		got, want := dp.Trace(frame()), twin.Trace(frame())
		if len(got.Steps) < 2 || len(got.Steps) != got.Verdict.Tables {
			t.Fatalf("trace of a cached frame took %d steps for %d tables", len(got.Steps), got.Verdict.Tables)
		}
		if !reflect.DeepEqual(got.Steps, want.Steps) || !reflect.DeepEqual(got.Verdict, want.Verdict) {
			t.Fatalf("cached trace:\n got  %+v -> %v\n want %+v -> %v", got.Steps, got.Verdict, want.Steps, want.Verdict)
		}
	})
}

// TestMeteredProcessPricesItsTrace is the one-record rule: what a metered
// Process charges for a packet is priceWalk over the steps Trace records for
// it, so a second meter fed only the traces ends with the same totals.
func TestMeteredProcessPricesItsTrace(t *testing.T) {
	for _, tc := range []struct {
		name      string
		uc        *workload.UseCase
		decompose bool
	}{
		{"l3-acl", workload.L3ACLRouterUseCase(200, 1000, 8, 2016), false},
		{"loadbalancer-decomposed", workload.LoadBalancerUseCase(20), true},
		{"loadbalancer", workload.LoadBalancerUseCase(20), false},
		{"acl-decomposed", decomposedACL(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Decompose = tc.decompose
			opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			dp, err := Compile(tc.uc.Pipeline, opts)
			if err != nil {
				t.Fatal(err)
			}
			reading := cpumodel.NewMeter(cpumodel.DefaultPlatform())
			sn := dp.snap.Load()
			trace := tc.uc.Trace(64)
			var p pkt.Packet
			var v openflow.Verdict
			for i := 0; i < 500; i++ {
				trace.Next(&p)
				frame := append([]byte(nil), p.Data...)
				steps := dp.Trace(&pkt.Packet{Data: append([]byte(nil), frame...), InPort: p.InPort}).Steps
				priceWalk(reading, sn.parserLayer, steps, sn.regions)
				dp.Process(&pkt.Packet{Data: frame, InPort: p.InPort}, &v)
				if got, want := opts.Meter.TotalCycles(), reading.TotalCycles(); got != want {
					t.Fatalf("packet %d: Process charged %d cycles in all, its traces price at %d", i, got, want)
				}
			}
			if opts.Meter.String() != reading.String() {
				t.Fatalf("Process charged %s, its traces price at %s", opts.Meter, reading)
			}
		})
	}
}

// TestMeteredProcessAllocatesNothing holds the metered walk to the forwarding
// walk's allocation budget: the step record is the model's own buffer,
// reused from packet to packet.  The frames take compound hash and LPM
// steps, and a hash miss into the direct-code tail (a linked-list probe
// allocates its tuple key, metered or not).
func TestMeteredProcessAllocatesNothing(t *testing.T) {
	acl := workload.L3ACLRouterUseCase(16, 1000, 8, 2016)
	m := acl.Pipeline.Table(0).Entries()[0].Match
	src, _, _ := m.Get(openflow.FieldIPSrc)
	dst, _, _ := m.Get(openflow.FieldIPDst)
	sport, _, _ := m.Get(openflow.FieldTCPSrc)
	for _, tc := range []struct {
		name      string
		pl        *openflow.Pipeline
		decompose bool
		p         *pkt.Packet
		walk      []TemplateKind
	}{
		{"l3-acl", acl.Pipeline, false, tcpPacket(t, 1, pkt.IPv4(src), pkt.IPv4(dst), uint16(sport), 80), []TemplateKind{TemplateHash, TemplateLPM}},
		// Decompose leaves the load balancer one hash stage; port 22 misses
		// the band and runs the tail.
		{"loadbalancer-decomposed", workload.LoadBalancerUseCase(20).Pipeline, true,
			tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 1), pkt.IPv4FromOctets(198, 51, 0, 1), 1234, 22), []TemplateKind{TemplateHash}},
		// UDP to port 25 walks the decomposed ACL's two direct-code
		// dispatchers, a hash and a linked list.
		{"acl-decomposed", decomposedACL().Pipeline, true,
			udpVlanPacket(t, 1, 0, pkt.IPv4FromOctets(203, 0, 113, 1), pkt.IPv4FromOctets(192, 0, 2, 13), 1234, 25),
			[]TemplateKind{TemplateDirectCode, TemplateDirectCode, TemplateHash, TemplateLinkedList}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Decompose = tc.decompose
			opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			dp, err := Compile(tc.pl, opts)
			if err != nil {
				t.Fatal(err)
			}
			frame := tc.p.Data
			p := pkt.Packet{Data: append([]byte(nil), frame...), InPort: tc.p.InPort}
			var v openflow.Verdict
			run := func() {
				copy(p.Data, frame)
				dp.ProcessUnlocked(&p, &v)
			}
			run()
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Fatalf("a metered ProcessUnlocked allocates %v times per packet", allocs)
			}
			var walk []TemplateKind
			for _, st := range dp.steps {
				walk = append(walk, st.Template)
			}
			if got := opts.Meter.Packets(); got != 102 || !slices.Equal(walk, tc.walk) {
				t.Fatalf("metered %d packets walking %v, want 102 walking %v", got, walk, tc.walk)
			}
		})
	}
}

package core

import (
	"strings"
	"testing"

	"eswitch/internal/openflow"
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
	if !dp.CountersEnabled() {
		t.Fatal("CountersEnabled = false with UpdateCounters on")
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

package eswitch_test

import (
	"testing"

	"eswitch"
)

// TestQuickstartFirewall exercises the public facade end to end: build the
// Fig. 1 firewall, compile it, forward packets, update it.
func TestQuickstartFirewall(t *testing.T) {
	webServer := uint64(eswitch.IPv4FromOctets(192, 0, 2, 1))
	pl := eswitch.NewPipeline(2)
	t0 := pl.Table(0)
	t0.AddFlow(300, eswitch.NewMatch().Set(eswitch.FieldInPort, 2), eswitch.Apply(eswitch.Output(1)))
	t0.AddFlow(200, eswitch.NewMatch().
		Set(eswitch.FieldInPort, 1).
		Set(eswitch.FieldIPDst, webServer).
		Set(eswitch.FieldTCPDst, 80),
		eswitch.Apply(eswitch.Output(2)))
	t0.AddFlow(100, eswitch.NewMatch(), eswitch.Apply(eswitch.Drop()))

	sw, err := eswitch.New(pl, eswitch.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Stages()) != 1 {
		t.Fatalf("stages: %v", sw.Stages())
	}

	flows := []eswitch.TrafficFlow{
		{InPort: 1, DstIP: eswitch.IPv4FromOctets(192, 0, 2, 1), DstPort: 80, SrcIP: 7, SrcPort: 40000},
		{InPort: 1, DstIP: eswitch.IPv4FromOctets(192, 0, 2, 1), DstPort: 22, SrcIP: 7, SrcPort: 40001},
		{InPort: 2, DstIP: 9, DstPort: 55000, SrcIP: eswitch.IPv4FromOctets(192, 0, 2, 1), SrcPort: 80},
	}
	trace := eswitch.NewTrace(flows, 0)
	var p eswitch.Packet
	var v eswitch.Verdict
	wantForwarded := []bool{true, false, true}
	wantPort := []uint32{2, 0, 1}
	for i := range flows {
		trace.Next(&p)
		sw.Process(&p, &v)
		if v.Forwarded() != wantForwarded[i] {
			t.Fatalf("flow %d: %s", i, v.String())
		}
		if v.Forwarded() && v.OutPorts[0] != wantPort[i] {
			t.Fatalf("flow %d went to port %d", i, v.OutPorts[0])
		}
	}

	// Live update through the facade.
	if err := sw.AddFlow(0, eswitch.NewEntry(250,
		eswitch.NewMatch().Set(eswitch.FieldInPort, 1).Set(eswitch.FieldIPDst, webServer).Set(eswitch.FieldUDPDst, 53),
		eswitch.Apply(eswitch.Output(2)))); err != nil {
		t.Fatal(err)
	}
	if removed, err := sw.DeleteFlow(0, eswitch.NewMatch().Set(eswitch.FieldInPort, 2), 300); err != nil || removed != 1 {
		t.Fatalf("delete: %d %v", removed, err)
	}
}

// TestFacadeUseCasesAndBaseline compiles every bundled use case with both
// datapaths through the public API.
func TestFacadeUseCasesAndBaseline(t *testing.T) {
	cases := []*eswitch.UseCase{
		eswitch.L2UseCase(100, 4),
		eswitch.L3UseCase(500, 8, 1),
		eswitch.LoadBalancerUseCase(10),
		eswitch.GatewayUseCase(eswitch.GatewayConfig{CEs: 2, UsersPerCE: 4, Prefixes: 100, Seed: 1}),
	}
	for _, uc := range cases {
		opts := eswitch.DefaultOptions()
		opts.Meter = eswitch.NewMeter(eswitch.DefaultPlatform())
		sw, err := eswitch.New(uc.Pipeline, opts)
		if err != nil {
			t.Fatalf("%s: %v", uc.Name, err)
		}
		baseline, err := eswitch.NewBaseline(uc.Pipeline.Clone(), eswitch.DefaultBaselineOptions())
		if err != nil {
			t.Fatalf("%s baseline: %v", uc.Name, err)
		}
		interp := eswitch.NewInterpreter(uc.Pipeline)
		trace := uc.Trace(256)
		var p eswitch.Packet
		var v1, v2, v3 eswitch.Verdict
		for i := 0; i < 512; i++ {
			trace.Next(&p)
			q1 := eswitch.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort}
			q2 := eswitch.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort}
			q3 := eswitch.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort}
			sw.Process(&q1, &v1)
			baseline.Process(&q2, &v2)
			interp.Process(&q3, &v3, nil)
			if !v1.Equivalent(&v3) || !v2.Equivalent(&v3) {
				t.Fatalf("%s packet %d: eswitch=%s baseline=%s interpreter=%s",
					uc.Name, i, v1.String(), v2.String(), v3.String())
			}
		}
		if sw.Meter().Packets() == 0 || sw.Meter().CyclesPerPacket() <= 0 {
			t.Fatalf("%s: meter not accounting", uc.Name)
		}
		model := sw.PerformanceModel(uc.Name)
		if model.FixedCycles() <= 0 {
			t.Fatalf("%s: empty performance model", uc.Name)
		}
	}
}

// TestFacadePerfModel checks the Fig. 20 numbers through the facade.
func TestFacadePerfModel(t *testing.T) {
	m := eswitch.GatewayPerfModel()
	p := eswitch.DefaultPlatform()
	b := m.Bounds(p)
	if b.UpperCycles != 178 || b.LowerCycles != 253 {
		t.Fatalf("bounds %+v", b)
	}
}

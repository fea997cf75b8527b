package core

import (
	"fmt"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
)

// puntPipeline builds a two-stage pipeline exercising every punt flavour:
//
//	t0: TCPDst=9999 -> explicit controller output (action punt @ table 0)
//	    match-all   -> goto t3
//	t3: TCPDst=80   -> output:2
//	    TCPDst=81   -> write-actions {controller} (action punt @ table 3,
//	                   executed with the action set at end of pipeline)
//	    otherwise   -> table miss, Miss=MissController (miss punt @ table 3)
func puntPipeline() *openflow.Pipeline {
	pl := openflow.NewPipeline(4)
	pl.Miss = openflow.MissController
	t0 := pl.Table(0)
	t0.AddFlow(200, openflow.NewMatch().Set(openflow.FieldTCPDst, 9999), openflow.Apply(openflow.ToController()))
	t0.AddFlow(100, openflow.NewMatch(), openflow.Goto(3))
	t3 := pl.AddTable(3)
	t3.AddFlow(100, openflow.NewMatch().Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(2)))
	t3.AddFlow(90, openflow.NewMatch().Set(openflow.FieldTCPDst, 81),
		openflow.Instructions{WriteActions: openflow.ActionList{openflow.ToController()}})
	return pl
}

func puntFlow(dst uint16, f int) pktgen.Flow {
	return pktgen.Flow{
		InPort:  uint32(1 + f%4),
		SrcMAC:  pkt.MACFromUint64(0x0a0000000000 + uint64(f)),
		DstMAC:  pkt.MACFromUint64(2),
		SrcIP:   pkt.IPv4FromOctets(10, 0, byte(f>>8), byte(f)),
		DstIP:   pkt.IPv4FromOctets(10, 1, 0, 1),
		SrcPort: uint16(1000 + f),
		DstPort: dst,
	}
}

// TestPuntAttribution checks that the interpreter, the per-packet compiled
// path, the burst engine and the microflow cache's replayed verdict programs
// all attribute punts identically: reason (miss vs action) and originating
// table.
func TestPuntAttribution(t *testing.T) {
	pl := puntPipeline()
	type want struct {
		reason openflow.PuntReason
		table  openflow.TableID
		toCtrl bool
	}
	cases := []struct {
		dst  uint16
		want want
	}{
		{9999, want{openflow.PuntAction, 0, true}},
		{80, want{openflow.PuntNone, 0, false}},
		{81, want{openflow.PuntAction, 3, true}},
		{1234, want{openflow.PuntMiss, 3, true}},
	}

	flows := make([]pktgen.Flow, 0, len(cases))
	for i, c := range cases {
		flows = append(flows, puntFlow(c.dst, i))
	}
	trace := pktgen.NewTrace(flows, 0)

	check := func(label string, i int, v *openflow.Verdict) {
		t.Helper()
		w := cases[i].want
		if v.ToController != w.toCtrl || v.PuntReason != w.reason || v.PuntTable != w.table {
			t.Fatalf("%s dst=%d: toCtrl=%v reason=%v table=%d, want %+v",
				label, cases[i].dst, v.ToController, v.PuntReason, v.PuntTable, w)
		}
	}

	// Ground truth: the interpreter.
	in := openflow.NewInterpreter(pl)
	var v openflow.Verdict
	var p pkt.Packet
	for i := range cases {
		trace.Next(&p)
		in.Process(&p, &v, nil)
		check("interpreter", i, &v)
	}

	for _, fc := range []int{0, 1024} {
		opts := DefaultOptions()
		opts.FlowCache = fc
		dp, err := Compile(pl.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("flowcache=%d", fc)

		// Per-packet compiled path.
		trace.Reset()
		for i := range cases {
			trace.Next(&p)
			dp.ProcessUnlocked(&p, &v)
			check(label+" process", i, &v)
		}

		// Burst path through a registered worker, twice: the second pass is
		// served from the microflow cache when enabled, and must replay the
		// identical punt attribution.
		w := dp.RegisterWorker()
		packets := make([]pkt.Packet, len(cases))
		ps := make([]*pkt.Packet, len(cases))
		vs := make([]openflow.Verdict, len(cases))
		for pass := 0; pass < 3; pass++ {
			trace.Reset()
			for i := range cases {
				trace.Next(&packets[i])
				ps[i] = &packets[i]
			}
			w.Enter()
			w.ProcessBurst(ps, vs)
			w.Exit()
			for i := range cases {
				check(fmt.Sprintf("%s burst pass %d", label, pass), i, &vs[i])
			}
		}
		if fc > 0 {
			if st := dp.FlowCacheStats(); st.Hits == 0 {
				t.Fatalf("cache never hit (%+v) — the punt replay path went untested", st)
			}
		}
		dp.UnregisterWorker(w)
	}
}

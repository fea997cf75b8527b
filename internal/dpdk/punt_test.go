package dpdk

import (
	"bytes"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/slowpath"
)

// puntingDatapath fabricates verdicts per destination port byte (frame[0]):
//
//	0x01 -> output:2
//	0x02 -> controller (explicit action punt from table 5)
//	0x03 -> output:2 AND controller (the dual verdict of satellite concern)
//	0x04 -> output:1,2 (two ports)
//	0x05 -> output:0 (a port no switch has)
//	0x06 -> output:3 (above NumPorts on the two-port switches below)
//	else -> drop
var puntingDatapath = DatapathFunc(func(p *pkt.Packet, v *openflow.Verdict) {
	v.Reset()
	switch p.Data[0] {
	case 0x01:
		v.OutPorts = append(v.OutPorts, 2)
	case 0x02:
		v.ToController = true
		v.NotePunt(openflow.PuntMiss, 1)
	case 0x03:
		v.OutPorts = append(v.OutPorts, 2)
		v.ToController = true
		v.NotePunt(openflow.PuntAction, 5)
	case 0x04:
		v.OutPorts = append(v.OutPorts, 1, 2)
	case 0x05:
		v.OutPorts = append(v.OutPorts, 0)
	case 0x06:
		v.OutPorts = append(v.OutPorts, 3)
	default:
		v.Dropped = true
	}
})

// txFrames dequeues everything a ring-backed port transmitted on queue 0.
func txFrames(p *Port) [][]byte {
	var out [][]byte
	for {
		f, ok := p.be.(*RingBackend).TxDequeue(0)
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// TestStageForwardAndPunt pins the verdict taxonomy fix: a verdict carrying
// both output ports and ToController must be staged to TX AND punted,
// counting once in each of forwarded and toCtrl (previously the punt was
// silently lost to the Forwarded branch).
func TestStageForwardAndPunt(t *testing.T) {
	sw := NewSwitchWithConfig(puntingDatapath, SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 1})
	rings := sw.armPuntRings(16, 0) // unchecked: below-burst ring is fine in-package
	port1, _ := sw.Port(1)
	port2, _ := sw.Port(2)

	port1.InjectOn(AutoQueue, []byte{0x03, 0xaa})
	sw.PollOnce(nil)

	st := sw.Stats()
	if st.Processed != 1 || st.Forwarded != 1 || st.ToCtrl != 1 || st.Dropped != 0 {
		t.Fatalf("dual verdict counted wrong: %+v", st)
	}
	if got := port2.DrainTx(); got != 1 {
		t.Fatalf("dual verdict staged %d frames to TX, want 1", got)
	}
	var rec slowpath.PuntRecord
	if !rings[0].Pop(&rec) {
		t.Fatal("dual verdict was not punted")
	}
	if !bytes.Equal(rec.Frame, []byte{0x03, 0xaa}) || rec.InPort != 1 ||
		rec.Table != 5 || rec.Reason != openflow.PuntAction {
		t.Fatalf("punt record = %+v", rec)
	}
	if st.Punts != 1 || st.PuntDrops != 0 {
		t.Fatalf("punt counters = %d/%d", st.Punts, st.PuntDrops)
	}

	// Pure punt and pure forward still behave.
	port1.InjectOn(AutoQueue, []byte{0x02})
	port1.InjectOn(AutoQueue, []byte{0x01})
	sw.PollOnce(nil)
	st = sw.Stats()
	if st.Forwarded != 2 || st.ToCtrl != 2 || st.Dropped != 0 {
		t.Fatalf("counters after mixed traffic: %+v", st)
	}
	if !rings[0].Pop(&rec) || rec.Table != 1 || rec.Reason != openflow.PuntMiss || rec.InPort != 1 {
		t.Fatalf("miss punt record = %+v", rec)
	}
	port2.DrainTx()

	// The shapes with no single in-range port.  A verdict that names any
	// port counts as forwarded, even when no port it names exists.
	for _, c := range []struct {
		name       string
		frame      []byte
		tx1, tx2   int
		fwd, dropd uint64
	}{
		{"two ports", []byte{0x04, 0xbb}, 1, 1, 1, 0},
		{"port 0", []byte{0x05, 0xcc}, 0, 0, 1, 0},
		{"port above NumPorts", []byte{0x06, 0xdd}, 0, 0, 1, 0},
	} {
		before := sw.Stats()
		port1.InjectOn(AutoQueue, c.frame)
		sw.PollOnce(nil)
		st := sw.Stats()
		if fwd, dropd := st.Forwarded-before.Forwarded, st.Dropped-before.Dropped; fwd != c.fwd || dropd != c.dropd {
			t.Fatalf("%s: forwarded %d, dropped %d; want %d, %d", c.name, fwd, dropd, c.fwd, c.dropd)
		}
		for _, tx := range []struct {
			port *Port
			want int
		}{{port1, c.tx1}, {port2, c.tx2}} {
			got := txFrames(tx.port)
			if len(got) != tx.want {
				t.Fatalf("%s: port %d transmitted %d frames, want %d", c.name, tx.port.ID, len(got), tx.want)
			}
			for _, f := range got {
				if !bytes.Equal(f, c.frame) {
					t.Fatalf("%s: port %d transmitted %x, want %x", c.name, tx.port.ID, f, c.frame)
				}
			}
		}
	}
}

// TestPuntDisarmedCountsOnly: without punt rings the substrate keeps the
// pre-slow-path behaviour — ToController verdicts are counted and the frame
// is discarded — and the punt counters stay zero.
func TestPuntDisarmedCountsOnly(t *testing.T) {
	sw := NewSwitchWithConfig(puntingDatapath, SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 1})
	port1, _ := sw.Port(1)
	port1.InjectOn(AutoQueue, []byte{0x02})
	sw.PollOnce(nil)
	st := sw.Stats()
	if st.ToCtrl != 1 || st.Punts != 0 || st.PuntDrops != 0 {
		t.Fatalf("disarmed stats: %+v", st)
	}
}

// TestPuntOverflowAccounting: a full punt ring drops (never blocks the
// worker), and Punts+PuntDrops == ToCtrl exactly.
func TestPuntOverflowAccounting(t *testing.T) {
	sw := NewSwitchWithConfig(puntingDatapath, SwitchConfig{NumPorts: 2, RingSize: 256, Queues: 1})
	rings := sw.armPuntRings(4, 0) // capacity 3, deliberately below burst to force overflow
	port1, _ := sw.Port(1)
	const total = 50
	for i := 0; i < total; i++ {
		port1.InjectOn(AutoQueue, []byte{0x02, byte(i)})
	}
	for sw.PollOnce(nil) > 0 {
	}
	st := sw.Stats()
	if st.ToCtrl != total {
		t.Fatalf("toCtrl = %d, want %d", st.ToCtrl, total)
	}
	if st.Punts+st.PuntDrops != st.ToCtrl {
		t.Fatalf("accounting broken: %d punts + %d drops != %d toCtrl", st.Punts, st.PuntDrops, st.ToCtrl)
	}
	if st.Punts != uint64(rings[0].Capacity()) {
		t.Fatalf("punts = %d, want ring capacity %d", st.Punts, rings[0].Capacity())
	}
	if rings[0].Len() != rings[0].Capacity() {
		t.Fatalf("ring holds %d", rings[0].Len())
	}
}

// tableDP forwards InPort 1 to port 2 and punts everything else — the
// datapath behind the output:TABLE PacketOut tests.
var tableDP = DatapathFunc(func(p *pkt.Packet, v *openflow.Verdict) {
	v.Reset()
	if p.InPort == 1 {
		v.OutPorts = append(v.OutPorts, 2)
		return
	}
	v.ToController = true
	v.NotePunt(openflow.PuntMiss, 0)
})

func TestSwitchPacketOut(t *testing.T) {
	sw := NewSwitchWithConfig(tableDP, SwitchConfig{NumPorts: 4, RingSize: 64, Queues: 1})
	frame := []byte{0xde, 0xad}

	// Plain physical output.
	if err := sw.PacketOut(0, frame, openflow.ActionList{openflow.Output(3)}); err != nil {
		t.Fatal(err)
	}
	p3, _ := sw.Port(3)
	if p3.DrainTx() != 1 {
		t.Fatal("output:3 did not transmit")
	}

	// Flood skips the ingress port.
	if err := sw.PacketOut(2, frame, openflow.ActionList{openflow.Flood()}); err != nil {
		t.Fatal(err)
	}
	counts := 0
	for _, port := range sw.Ports() {
		n := port.DrainTx()
		if port.ID == 2 && n != 0 {
			t.Fatal("flood echoed out the ingress port")
		}
		counts += n
	}
	if counts != 3 {
		t.Fatalf("flood reached %d ports, want 3", counts)
	}

	// output:TABLE re-injects through the datapath and forwards its verdict.
	if err := sw.PacketOut(1, frame, openflow.ActionList{openflow.Output(openflow.PortTable)}); err != nil {
		t.Fatal(err)
	}
	p2, _ := sw.Port(2)
	if p2.DrainTx() != 1 {
		t.Fatal("output:TABLE verdict not transmitted")
	}

	// A re-injected frame that punts again is cut and counted, not looped.
	if err := sw.PacketOut(3, frame, openflow.ActionList{openflow.Output(openflow.PortTable)}); err != nil {
		t.Fatal(err)
	}
	if sw.ReinjectPunts() != 1 {
		t.Fatalf("ReinjectPunts = %d", sw.ReinjectPunts())
	}

	// Unsupported actions and unknown ports are rejected.
	if err := sw.PacketOut(0, frame, openflow.ActionList{openflow.SetField(openflow.FieldEthDst, 5)}); err == nil {
		t.Fatal("set-field packet-out accepted")
	}
	if err := sw.PacketOut(0, frame, openflow.ActionList{openflow.Output(99)}); err == nil {
		t.Fatal("unknown port accepted")
	}
	// Drop ends execution without transmitting.
	if err := sw.PacketOut(0, frame, openflow.ActionList{openflow.Drop(), openflow.Output(1)}); err != nil {
		t.Fatal(err)
	}
	p1, _ := sw.Port(1)
	if p1.DrainTx() != 0 {
		t.Fatal("drop packet-out still transmitted")
	}
}

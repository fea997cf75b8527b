package ofp

import (
	"bytes"
	"testing"
	"testing/quick"

	"eswitch/internal/openflow"
)

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: TypeHello, Xid: 1},
		{Type: TypeEchoRequest, Xid: 2, Body: []byte("ping")},
		{Type: TypeFlowMod, Xid: 3, Body: []byte{1, 2, 3, 4, 5}},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Xid != want.Xid || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("got %+v want %+v", got, want)
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("reading from an empty buffer must fail")
	}
}

func TestMessageFramingErrors(t *testing.T) {
	// Wrong version byte.
	raw := []byte{0x01, 0x00, 0x00, 0x08, 0, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Fatal("wrong version must be rejected")
	}
	// Length smaller than the header.
	raw = []byte{version, 0x00, 0x00, 0x04, 0, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Fatal("bogus length must be rejected")
	}
	// Truncated body.
	raw = []byte{version, 0x00, 0x00, 0x10, 0, 0, 0, 0, 1, 2}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated body must be rejected")
	}
	if err := WriteMessage(&bytes.Buffer{}, Message{Body: make([]byte, maxMessageLen)}); err == nil {
		t.Fatal("oversized body must be rejected")
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	match := openflow.NewMatch().
		Set(openflow.FieldInPort, 3).
		SetPrefix(openflow.FieldIPDst, 0x0a000000, 8).
		Set(openflow.FieldTCPDst, 443)
	fm := FlowMod{
		Command:  FlowModAdd,
		TableID:  7,
		Priority: 1234,
		Match:    match,
		Instructions: openflow.Instructions{
			ApplyActions:  openflow.ActionList{openflow.SetField(openflow.FieldVLANID, 9), openflow.Output(4)},
			WriteActions:  openflow.ActionList{openflow.Output(5)},
			HasGoto:       true,
			GotoTable:     42,
			WriteMetadata: 0xdeadbeef,
			MetadataMask:  0xffffffff,
		},
	}
	got, err := DecodeFlowMod(EncodeFlowMod(fm))
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != fm.Command || got.TableID != fm.TableID || got.Priority != fm.Priority {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.Match.Equal(fm.Match) {
		t.Fatalf("match mismatch: %v vs %v", got.Match, fm.Match)
	}
	if !got.Instructions.Equal(fm.Instructions) {
		t.Fatalf("instruction mismatch: %v vs %v", got.Instructions, fm.Instructions)
	}
}

func TestFlowModTimeoutsRoundTrip(t *testing.T) {
	fm := FlowMod{
		Command:      FlowModAdd,
		TableID:      2,
		Priority:     10,
		Match:        openflow.NewMatch().Set(openflow.FieldIPSrc, 0x0a000001),
		Instructions: openflow.Apply(openflow.Output(3)),
		IdleTimeout:  30,
		HardTimeout:  300,
	}
	body := EncodeFlowMod(fm)
	got, err := DecodeFlowMod(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.IdleTimeout != 30 || got.HardTimeout != 300 {
		t.Fatalf("timeouts did not survive the round trip: %+v", got)
	}
	// Bodies from encoders that predate the timeout tail decode with zero
	// timeouts (never expire) and nothing else disturbed.
	legacy, err := DecodeFlowMod(body[:len(body)-4])
	if err != nil {
		t.Fatalf("timeout-free body must still decode: %v", err)
	}
	if legacy.IdleTimeout != 0 || legacy.HardTimeout != 0 {
		t.Fatalf("timeout-free body decoded timeouts: %+v", legacy)
	}
	if !legacy.Match.Equal(fm.Match) || !legacy.Instructions.Equal(fm.Instructions) {
		t.Fatalf("timeout-free decode disturbed the rest of the message: %+v", legacy)
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	fr := FlowRemoved{
		Reason:      FlowRemovedIdleTimeout,
		TableID:     5,
		Priority:    777,
		IdleTimeout: 10,
		HardTimeout: 60,
		DurationSec: 42,
		Packets:     123456789,
		Bytes:       987654321,
		Match: openflow.NewMatch().
			SetPrefix(openflow.FieldIPSrc, 0xc0a80000, 16).
			Set(openflow.FieldTCPDst, 22),
	}
	got, err := DecodeFlowRemoved(EncodeFlowRemoved(fr))
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != fr.Reason || got.TableID != fr.TableID || got.Priority != fr.Priority {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.IdleTimeout != fr.IdleTimeout || got.HardTimeout != fr.HardTimeout || got.DurationSec != fr.DurationSec {
		t.Fatalf("lifecycle mismatch: %+v", got)
	}
	if got.Packets != fr.Packets || got.Bytes != fr.Bytes {
		t.Fatalf("counter mismatch: %+v", got)
	}
	if !got.Match.Equal(fr.Match) {
		t.Fatalf("match mismatch: %v vs %v", got.Match, fr.Match)
	}
	// Truncated bodies error, never panic.
	full := EncodeFlowRemoved(fr)
	for cut := 0; cut < len(full)-1; cut++ {
		DecodeFlowRemoved(full[:cut])
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	cases := []PortStatus{
		{Reason: PortStatusModify, PortNo: 2, State: PortStateLinkDown, Desc: "afpacket:veth0"},
		{Reason: PortStatusModify, PortNo: 1, State: 0},
		{Reason: PortStatusModify, PortNo: 9, State: PortStateFlapping, Desc: "ring"},
		{Reason: PortStatusAdd, PortNo: 0xffffffff, State: PortStateLinkDown | PortStateFlapping, Desc: "pcap"},
	}
	for _, ps := range cases {
		got, err := DecodePortStatus(EncodePortStatus(ps))
		if err != nil {
			t.Fatal(err)
		}
		if got != ps {
			t.Fatalf("roundtrip mismatch: %+v != %+v", got, ps)
		}
	}
	// Truncated bodies error, never panic.
	full := EncodePortStatus(cases[0])
	for cut := 0; cut < 9; cut++ { // the fixed header is 9 bytes; Desc may be empty
		if _, err := DecodePortStatus(full[:cut]); err == nil {
			t.Fatalf("truncated body of %d bytes decoded without error", cut)
		}
	}
}

func TestFlowModDeleteRoundTrip(t *testing.T) {
	fm := FlowMod{Command: FlowModDelete, TableID: 1, Priority: -1, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, 80)}
	got, err := DecodeFlowMod(EncodeFlowMod(fm))
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != FlowModDelete || got.Priority != -1 || !got.Match.Equal(fm.Match) {
		t.Fatalf("delete round trip: %+v", got)
	}
}

func TestFlowModDecodeTruncated(t *testing.T) {
	full := EncodeFlowMod(FlowMod{Command: FlowModAdd, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, 80), Instructions: openflow.Apply(openflow.Output(1))})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeFlowMod(full[:cut]); err == nil && cut < len(full)-1 {
			// Some prefixes may decode "successfully" into an empty
			// trailing section; what matters is no panic.
			continue
		}
	}
}

func TestPacketInOutRoundTrip(t *testing.T) {
	pi := PacketIn{BufferID: 9, InPort: 3, TableID: 12, Reason: PacketInReasonAction, Data: []byte{1, 2, 3, 4}}
	gotPI, err := DecodePacketIn(EncodePacketIn(pi))
	if err != nil {
		t.Fatal(err)
	}
	if gotPI.BufferID != 9 || gotPI.InPort != 3 || gotPI.TableID != 12 ||
		gotPI.Reason != PacketInReasonAction || !bytes.Equal(gotPI.Data, pi.Data) {
		t.Fatalf("packet-in round trip: %+v", gotPI)
	}
	po := PacketOut{BufferID: 1, InPort: 2, Actions: openflow.ActionList{openflow.Output(7)}, Data: []byte{9, 9}}
	gotPO, err := DecodePacketOut(EncodePacketOut(po))
	if err != nil {
		t.Fatal(err)
	}
	if gotPO.InPort != 2 || len(gotPO.Actions) != 1 || gotPO.Actions[0].Port != 7 || !bytes.Equal(gotPO.Data, po.Data) {
		t.Fatalf("packet-out round trip: %+v", gotPO)
	}
}

func TestFlowModRoundTripProperty(t *testing.T) {
	f := func(prio int32, table uint16, port uint32, ipDst uint32, tcpDst uint16) bool {
		match := openflow.NewMatch().Set(openflow.FieldIPDst, uint64(ipDst)).Set(openflow.FieldTCPDst, uint64(tcpDst))
		fm := FlowMod{Command: FlowModAdd, TableID: openflow.TableID(table), Priority: prio, Match: match,
			Instructions: openflow.Apply(openflow.Output(port))}
		got, err := DecodeFlowMod(EncodeFlowMod(fm))
		return err == nil && got.Match.Equal(match) && got.Priority == prio &&
			got.Instructions.ApplyActions[0].Port == port
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFlowModEncodeDecode(b *testing.B) {
	fm := FlowMod{
		Command: FlowModAdd, TableID: 1, Priority: 100,
		Match:        openflow.NewMatch().Set(openflow.FieldIPDst, 1234).Set(openflow.FieldTCPDst, 80),
		Instructions: openflow.Apply(openflow.Output(1)),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body := EncodeFlowMod(fm)
		if _, err := DecodeFlowMod(body); err != nil {
			b.Fatal(err)
		}
	}
}

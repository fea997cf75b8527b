package ipfix

import (
	"encoding/binary"
	"testing"
)

// flowTemplate is the exporter's record layout, reused by the tests.
func flowTemplate() Template {
	return Template{
		ID: 256,
		Fields: []FieldSpec{
			{IESourceIPv4Address, 4},
			{IEDestinationIPv4Address, 4},
			{IESourceTransportPort, 2},
			{IEDestinationTransportPort, 2},
			{IEProtocolIdentifier, 1},
			{IEPacketDeltaCount, 8},
			{IEOctetDeltaCount, 8},
			{IEFlowStartMilliseconds, 8},
			{IEFlowEndMilliseconds, 8},
			{IEFlowEndReason, 1},
		},
	}
}

// TestRoundtrip encodes a template + data message and decodes it back,
// checking every field value and the sequence-number bookkeeping survive
// the wire.
func TestRoundtrip(t *testing.T) {
	tmpl := flowTemplate()
	if got := tmpl.recordLength(); got != 46 {
		t.Fatalf("recordLength = %d, want 46", got)
	}
	enc := NewEncoder(0xd0ba11)
	enc.Begin(1_700_000_000)
	enc.Templates(tmpl)
	enc.BeginDataSet(tmpl)
	var rb RecordBuilder
	type flow struct {
		src, dst       uint32
		sport, dport   uint16
		proto          uint8
		pkts, bytes    uint64
		startMS, endMS uint64
		endReason      uint8
	}
	flows := []flow{
		{0x0a000001, 0x0a000002, 1234, 80, 6, 1000, 64000, 10_000, 20_000, EndReasonActiveTimeout},
		{0xc0a80001, 0x08080808, 53211, 53, 17, 3, 300, 11_000, 11_050, EndReasonIdleTimeout},
	}
	for _, f := range flows {
		rb.Reset()
		rb.Uint32(f.src).Uint32(f.dst).Uint16(f.sport).Uint16(f.dport).Uint8(f.proto)
		rb.Uint64(f.pkts).Uint64(f.bytes).Uint64(f.startMS).Uint64(f.endMS).Uint8(f.endReason)
		if err := enc.Record(rb.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	msg := enc.Finish()
	if got := binary.BigEndian.Uint16(msg[2:]); int(got) != len(msg) {
		t.Fatalf("header length %d != message length %d", got, len(msg))
	}
	if enc.seq != 2 {
		t.Fatalf("sequence after 2 records = %d", enc.seq)
	}

	dec := NewDecoder()
	out, err := dec.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Domain != 0xd0ba11 || out.ExportTime != 1_700_000_000 || out.Sequence != 0 {
		t.Fatalf("header roundtrip: %+v", out)
	}
	if len(out.Templates) != 1 || len(out.Templates[0].Fields) != len(tmpl.Fields) {
		t.Fatalf("template roundtrip: %+v", out.Templates)
	}
	if len(out.Records) != len(flows) {
		t.Fatalf("got %d records, want %d", len(out.Records), len(flows))
	}
	for i, f := range flows {
		r := out.Records[i]
		checks := []struct {
			ie   uint16
			want uint64
		}{
			{IESourceIPv4Address, uint64(f.src)},
			{IEDestinationIPv4Address, uint64(f.dst)},
			{IESourceTransportPort, uint64(f.sport)},
			{IEDestinationTransportPort, uint64(f.dport)},
			{IEProtocolIdentifier, uint64(f.proto)},
			{IEPacketDeltaCount, f.pkts},
			{IEOctetDeltaCount, f.bytes},
			{IEFlowStartMilliseconds, f.startMS},
			{IEFlowEndMilliseconds, f.endMS},
			{IEFlowEndReason, uint64(f.endReason)},
		}
		for _, c := range checks {
			got, ok := r.Uint(c.ie)
			if !ok || got != c.want {
				t.Errorf("record %d IE %d = %d (ok=%v), want %d", i, c.ie, got, ok, c.want)
			}
		}
	}
}

// TestTemplateCacheAcrossMessages checks a collector session decodes
// data-only messages once it has seen the template, and counts (not fails
// on) data sets whose template it never learned.
func TestTemplateCacheAcrossMessages(t *testing.T) {
	tmpl := flowTemplate()
	enc := NewEncoder(7)

	dataOnly := func() []byte {
		enc.Begin(100)
		enc.BeginDataSet(tmpl)
		var rb RecordBuilder
		rb.Uint32(1).Uint32(2).Uint16(3).Uint16(4).Uint8(6)
		rb.Uint64(10).Uint64(640).Uint64(0).Uint64(1).Uint8(EndReasonEndOfFlow)
		if err := enc.Record(rb.Bytes()); err != nil {
			t.Fatal(err)
		}
		out := enc.Finish()
		cp := make([]byte, len(out))
		copy(cp, out)
		return cp
	}

	first := dataOnly()
	fresh := NewDecoder()
	m, err := fresh.Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 0 || m.SkippedSets != 1 {
		t.Fatalf("unknown template: records=%d skipped=%d", len(m.Records), m.SkippedSets)
	}

	enc.Begin(99)
	enc.Templates(tmpl)
	tmplMsg := enc.Finish()
	if _, err := fresh.Decode(tmplMsg); err != nil {
		t.Fatal(err)
	}
	second := dataOnly()
	m, err = fresh.Decode(second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 1 || m.SkippedSets != 0 {
		t.Fatalf("after template: records=%d skipped=%d", len(m.Records), m.SkippedSets)
	}
	// The sequence number counts data records across messages.
	if m.Sequence != 1 {
		t.Fatalf("second data message sequence = %d, want 1", m.Sequence)
	}
}

// TestDecodeErrors pins the malformed-input behaviour: errors, not panics.
func TestDecodeErrors(t *testing.T) {
	dec := NewDecoder()
	cases := map[string][]byte{
		"short":          {0, 10, 0, 4},
		"bad version":    {0, 9, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"length too big": {0, 10, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated set":  append([]byte{0, 10, 0, 18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0, 2),
		"set too long":   append([]byte{0, 10, 0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0, 2, 0, 99),
	}
	for name, b := range cases {
		if _, err := dec.Decode(b); err == nil {
			t.Errorf("%s: decode succeeded on malformed input", name)
		}
	}
	// Record outside a data set is refused.
	enc := NewEncoder(1)
	enc.Begin(0)
	if err := enc.Record([]byte{1}); err == nil {
		t.Error("Record outside a data set succeeded")
	}
}

package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	frames := [][]byte{
		bytes.Repeat([]byte{0xaa}, 60),
		bytes.Repeat([]byte{0xbb}, 594),
		bytes.Repeat([]byte{0xcc}, 1518),
	}
	base := time.Unix(1700000000, 123000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if err := w.WritePacket(Packet{Ts: base.Add(time.Duration(i) * time.Millisecond), Data: f}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("read %d records, wrote %d", len(got), len(frames))
	}
	for i, p := range got {
		if !bytes.Equal(p.Data, frames[i]) {
			t.Fatalf("record %d: data mismatch (%d vs %d bytes)", i, len(p.Data), len(frames[i]))
		}
		if p.OrigLen != len(frames[i]) {
			t.Fatalf("record %d: orig len %d, want %d", i, p.OrigLen, len(frames[i]))
		}
		want := base.Add(time.Duration(i) * time.Millisecond)
		if !p.Ts.Equal(want) {
			t.Fatalf("record %d: ts %v, want %v", i, p.Ts, want)
		}
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 100)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xee}, 1500)
	if err := w.WritePacket(Packet{Ts: time.Unix(1, 0), Data: big}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Data) != 100 || got[0].OrigLen != 1500 {
		t.Fatalf("got %d records, data %d bytes, orig %d; want 1/100/1500",
			len(got), len(got[0].Data), got[0].OrigLen)
	}
}

func TestBigEndianAndNanosecondMagic(t *testing.T) {
	// Hand-build a big-endian nanosecond-precision capture with one 60-byte
	// record, the way a capture tool on a big-endian box would.
	var buf bytes.Buffer
	var gh [24]byte
	binary.BigEndian.PutUint32(gh[0:4], magicNanoseconds)
	binary.BigEndian.PutUint16(gh[4:6], 2)
	binary.BigEndian.PutUint16(gh[6:8], 4)
	binary.BigEndian.PutUint32(gh[16:20], 65535)
	binary.BigEndian.PutUint32(gh[20:24], linkTypeEthernet)
	buf.Write(gh[:])
	var rh [16]byte
	binary.BigEndian.PutUint32(rh[0:4], 1700000000)
	binary.BigEndian.PutUint32(rh[4:8], 42) // 42 ns
	binary.BigEndian.PutUint32(rh[8:12], 60)
	binary.BigEndian.PutUint32(rh[12:16], 60)
	buf.Write(rh[:])
	buf.Write(bytes.Repeat([]byte{0x11}, 60))

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Data) != 60 {
		t.Fatalf("got %d records", len(got))
	}
	if want := time.Unix(1700000000, 42); !got[0].Ts.Equal(want) {
		t.Fatalf("ts %v, want %v", got[0].Ts, want)
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a pcap file at all......"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated mid-record must surface an error, not silent EOF.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	w.WritePacket(Packet{Ts: time.Unix(1, 0), Data: bytes.Repeat([]byte{1}, 60)})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadAll(bytes.NewReader(trunc)); err == nil || err == io.EOF {
		t.Fatalf("truncated record read as %v, want an error", err)
	}
}

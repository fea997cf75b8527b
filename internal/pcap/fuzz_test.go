package pcap

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReader runs arbitrary bytes through NewReader and Next until an error.
// Nothing may panic, no record may exceed maxRecordLen, and the records
// returned cannot add up to more bytes than the stream held.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 100)
	if err != nil {
		f.Fatal(err)
	}
	for i, n := range []int{60, 150, 0} { // 150 is cut to the snap length
		if err := w.WritePacket(Packet{Ts: time.Unix(1700000000, int64(i)*1000), Data: bytes.Repeat([]byte{byte(i)}, n)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	stream := buf.Bytes()
	f.Add(append([]byte(nil), stream...))
	f.Add(append([]byte(nil), stream[:24]...))             // global header only
	f.Add(append([]byte(nil), stream[:len(stream)-70]...)) // cut mid-record
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		read := 24
		for {
			p, err := r.Next()
			if err != nil {
				return
			}
			if len(p.Data) > maxRecordLen {
				t.Fatalf("record of %d bytes exceeds maxRecordLen %d", len(p.Data), maxRecordLen)
			}
			if read += 16 + len(p.Data); read > len(data) {
				t.Fatalf("records add up to %d bytes of a %d-byte stream", read, len(data))
			}
		}
	})
}

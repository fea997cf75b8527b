// Package pcap reads and writes classic libpcap capture files (the
// tcpdump/Wireshark on-disk format, network link type Ethernet).  It exists
// so the dataplane can replay real captured traces — realistic packet-size
// and flow-arrival distributions instead of synthetic pktgen sweeps — and so
// the traffic generators can export their traces for other tools, without
// pulling a capture library into the module.
//
// Only the classic format is implemented (24-byte global header, 16-byte
// per-record headers), in both byte orders and both timestamp precisions
// (0xa1b2c3d4 microsecond and 0xa1b23c4d nanosecond magics).  pcapng is out
// of scope; tools convert with `editcap -F pcap`.
package pcap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic pcap format, as they appear when read in the
// writer's own byte order.
const (
	magicMicroseconds = 0xa1b2c3d4
	magicNanoseconds  = 0xa1b23c4d
)

// linkTypeEthernet is the only link type this package understands: record
// payloads start at the Ethernet destination MAC, exactly the byte layout
// pkt.Packet.Data uses.
const linkTypeEthernet = 1

// defaultSnapLen is the capture length written into the global header (and
// the per-record cap) when the caller does not choose one.
const defaultSnapLen = 65535

// maxRecordLen rejects absurd record lengths while reading, so a corrupt or
// truncated header cannot make the reader allocate gigabytes.
const maxRecordLen = 1 << 20

// Packet is one capture record: the captured bytes plus the capture
// timestamp and the original on-the-wire length (>= len(Data) only when the
// capture was truncated by the snap length).
type Packet struct {
	Ts      time.Time
	OrigLen int
	Data    []byte
}

// Reader decodes a classic pcap stream record by record.
type Reader struct {
	r     *bufio.Reader
	order binary.ByteOrder
	nanos bool
	hdr   [16]byte
}

// NewReader parses the global header and returns a reader positioned at the
// first record.  Streams that are not classic Ethernet pcap are rejected.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var gh [24]byte
	if _, err := io.ReadFull(br, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: short global header: %w", err)
	}
	pr := &Reader{r: br}
	switch magic := binary.LittleEndian.Uint32(gh[0:4]); magic {
	case magicMicroseconds:
		pr.order = binary.LittleEndian
	case magicNanoseconds:
		pr.order, pr.nanos = binary.LittleEndian, true
	default:
		switch magic := binary.BigEndian.Uint32(gh[0:4]); magic {
		case magicMicroseconds:
			pr.order = binary.BigEndian
		case magicNanoseconds:
			pr.order, pr.nanos = binary.BigEndian, true
		default:
			return nil, fmt.Errorf("pcap: bad magic %#x (classic pcap only; convert pcapng with editcap -F pcap)", magic)
		}
	}
	if link := pr.order.Uint32(gh[20:24]); link != linkTypeEthernet {
		return nil, fmt.Errorf("pcap: link type %d unsupported (want Ethernet)", link)
	}
	return pr, nil
}

// Next returns the next record, allocating its Data slice.  It returns
// io.EOF cleanly at end of stream and io.ErrUnexpectedEOF on a record cut
// short mid-way.
func (r *Reader) Next() (Packet, error) {
	var p Packet
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return p, io.EOF
		}
		return p, fmt.Errorf("pcap: short record header: %w", err)
	}
	sec := int64(r.order.Uint32(r.hdr[0:4]))
	frac := int64(r.order.Uint32(r.hdr[4:8]))
	if r.nanos {
		p.Ts = time.Unix(sec, frac)
	} else {
		p.Ts = time.Unix(sec, frac*1000)
	}
	incl := int(r.order.Uint32(r.hdr[8:12]))
	p.OrigLen = int(r.order.Uint32(r.hdr[12:16]))
	if incl < 0 || incl > maxRecordLen {
		return p, fmt.Errorf("pcap: implausible record length %d", incl)
	}
	p.Data = make([]byte, incl)
	if _, err := io.ReadFull(r.r, p.Data); err != nil {
		return p, fmt.Errorf("pcap: truncated record: %w", io.ErrUnexpectedEOF)
	}
	return p, nil
}

// ReadAll decodes every record of the stream (convenience for preloading a
// trace into memory, the way the replay backend does).
func ReadAll(r io.Reader) ([]Packet, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Packet
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// Writer encodes records into a classic little-endian microsecond pcap
// stream.
type Writer struct {
	w       *bufio.Writer
	snapLen int
	hdr     [16]byte
}

// NewWriter writes the global header (snapLen <= 0 selects defaultSnapLen)
// and returns a writer.  Call Flush when done.
func NewWriter(w io.Writer, snapLen int) (*Writer, error) {
	if snapLen <= 0 {
		snapLen = defaultSnapLen
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:4], magicMicroseconds)
	binary.LittleEndian.PutUint16(gh[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(gh[6:8], 4)
	binary.LittleEndian.PutUint32(gh[16:20], uint32(snapLen))
	binary.LittleEndian.PutUint32(gh[20:24], linkTypeEthernet)
	if _, err := bw.Write(gh[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, snapLen: snapLen}, nil
}

// WritePacket appends one record, truncating Data to the snap length while
// preserving the original length field (like a real capture would).  A zero
// OrigLen means len(Data).
func (w *Writer) WritePacket(p Packet) error {
	data := p.Data
	if len(data) > w.snapLen {
		data = data[:w.snapLen]
	}
	orig := p.OrigLen
	if orig < len(p.Data) {
		orig = len(p.Data)
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(p.Ts.Unix()))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(p.Ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(orig))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(data)
	return err
}

// Flush drains the writer's buffer to the underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

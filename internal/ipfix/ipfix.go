// Package ipfix is a minimal pure-stdlib codec for IPFIX (RFC 7011) export
// messages: the wire format the telemetry plane's flow exporter speaks.
//
// Only the subset the exporter needs is implemented — IANA information
// elements (no enterprise bit), fixed-length fields, template sets (set ID
// 2) and data sets — but the wire shape is the standard one, so any IPFIX
// collector that learns the template can consume the stream.  The decoder
// exists for the tests, the reconciliation harness and the fuzz target; it
// keeps a per-observation-domain template cache across messages the way a
// real collector does.
package ipfix

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// version is the IPFIX protocol version (RFC 7011 §3.1).
const version = 10

// headerLen is the fixed message header length.
const headerLen = 16

// setHeaderLen is the set header length (set ID + length).
const setHeaderLen = 4

// templateSetID is the reserved set ID carrying template records.
const templateSetID = 2

// MinTemplateID is the smallest valid template (and therefore data-set) ID;
// IDs below it are reserved for template/options sets.
const MinTemplateID = 256

// IANA information element IDs used by the flow exporter (the go-flows
// feature set shape: key fields first, then the delta counters).
const (
	IEOctetDeltaCount          = 1
	IEPacketDeltaCount         = 2
	IEProtocolIdentifier       = 4
	IESourceTransportPort      = 7
	IESourceIPv4Address        = 8
	IEIngressInterface         = 10
	IEDestinationTransportPort = 11
	IEDestinationIPv4Address   = 12
	IEFlowEndReason            = 136
	IEFlowStartMilliseconds    = 152
	IEFlowEndMilliseconds      = 153
)

// FlowEndReason values (RFC 5102).
const (
	EndReasonIdleTimeout   = 1
	EndReasonActiveTimeout = 2
	EndReasonEndOfFlow     = 3
	EndReasonForcedEnd     = 4
)

// FieldSpec is one template field: an IANA information element and its
// encoded length in bytes.
type FieldSpec struct {
	ID     uint16
	Length uint16
}

// Template describes one record layout.
type Template struct {
	ID     uint16
	Fields []FieldSpec
}

// recordLength returns the encoded length of one data record.
func (t Template) recordLength() int {
	n := 0
	for _, f := range t.Fields {
		n += int(f.Length)
	}
	return n
}

// RecordBuilder appends big-endian field values in template order.
type RecordBuilder struct {
	b []byte
}

// Reset clears the builder, keeping its capacity.
func (r *RecordBuilder) Reset() { r.b = r.b[:0] }

// Uint8 appends a 1-byte field.
func (r *RecordBuilder) Uint8(v uint8) *RecordBuilder {
	r.b = append(r.b, v)
	return r
}

// Uint16 appends a 2-byte field.
func (r *RecordBuilder) Uint16(v uint16) *RecordBuilder {
	r.b = binary.BigEndian.AppendUint16(r.b, v)
	return r
}

// Uint32 appends a 4-byte field.
func (r *RecordBuilder) Uint32(v uint32) *RecordBuilder {
	r.b = binary.BigEndian.AppendUint32(r.b, v)
	return r
}

// Uint64 appends an 8-byte field.
func (r *RecordBuilder) Uint64(v uint64) *RecordBuilder {
	r.b = binary.BigEndian.AppendUint64(r.b, v)
	return r
}

// Bytes returns the encoded record.  The slice aliases the builder's buffer
// and is invalidated by the next Reset.
func (r *RecordBuilder) Bytes() []byte { return r.b }

// Encoder assembles IPFIX messages for one observation domain, maintaining
// the RFC 7011 sequence number (a running count of data records sent).
type Encoder struct {
	domain uint32
	seq    uint32

	buf      []byte
	setStart int // offset of the open set's header, -1 when none
	setTmpl  Template
	records  uint32 // data records in the current message
}

// NewEncoder returns an encoder for the given observation domain ID.
func NewEncoder(domain uint32) *Encoder {
	return &Encoder{domain: domain, setStart: -1}
}

// Begin starts a new message with the given export time (Unix seconds).
// Any previous message contents are discarded (use Finish first).
func (e *Encoder) Begin(exportTime uint32) {
	e.buf = e.buf[:0]
	e.setStart = -1
	e.records = 0
	e.buf = binary.BigEndian.AppendUint16(e.buf, version)
	e.buf = binary.BigEndian.AppendUint16(e.buf, 0) // length, patched in Finish
	e.buf = binary.BigEndian.AppendUint32(e.buf, exportTime)
	e.buf = binary.BigEndian.AppendUint32(e.buf, e.seq)
	e.buf = binary.BigEndian.AppendUint32(e.buf, e.domain)
}

// closeSet patches the open set's length, if any.
func (e *Encoder) closeSet() {
	if e.setStart < 0 {
		return
	}
	binary.BigEndian.PutUint16(e.buf[e.setStart+2:], uint16(len(e.buf)-e.setStart))
	e.setStart = -1
}

// Templates appends a template set describing the given templates.
func (e *Encoder) Templates(ts ...Template) {
	e.closeSet()
	e.setStart = len(e.buf)
	e.buf = binary.BigEndian.AppendUint16(e.buf, templateSetID)
	e.buf = binary.BigEndian.AppendUint16(e.buf, 0)
	for _, t := range ts {
		e.buf = binary.BigEndian.AppendUint16(e.buf, t.ID)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(len(t.Fields)))
		for _, f := range t.Fields {
			e.buf = binary.BigEndian.AppendUint16(e.buf, f.ID)
			e.buf = binary.BigEndian.AppendUint16(e.buf, f.Length)
		}
	}
	e.closeSet()
}

// BeginDataSet opens a data set for the given template.  Records appended
// with Record must match its layout.
func (e *Encoder) BeginDataSet(t Template) {
	e.closeSet()
	e.setStart = len(e.buf)
	e.setTmpl = t
	e.buf = binary.BigEndian.AppendUint16(e.buf, t.ID)
	e.buf = binary.BigEndian.AppendUint16(e.buf, 0)
}

// Record appends one encoded data record (RecordBuilder.Bytes) to the open
// data set.  The record length must match the set's template.
func (e *Encoder) Record(rec []byte) error {
	if e.setStart < 0 {
		return errors.New("ipfix: Record outside a data set")
	}
	if len(rec) != e.setTmpl.recordLength() {
		return fmt.Errorf("ipfix: record length %d != template %d length %d",
			len(rec), e.setTmpl.ID, e.setTmpl.recordLength())
	}
	e.buf = append(e.buf, rec...)
	e.records++
	return nil
}

// Finish closes the message and returns its bytes.  The slice aliases the
// encoder's buffer and is invalidated by the next Begin.  The encoder's
// sequence number advances by the number of data records in the message.
func (e *Encoder) Finish() []byte {
	e.closeSet()
	binary.BigEndian.PutUint16(e.buf[2:], uint16(len(e.buf)))
	e.seq += e.records
	return e.buf
}

// FieldValue is one decoded data-record field: the information element ID
// and its raw big-endian bytes.
type FieldValue struct {
	ID    uint16
	Value []byte
}

// DataRecord is one decoded data record.
type DataRecord struct {
	TemplateID uint16
	Fields     []FieldValue
}

// Uint returns the first field with the given IE ID as an unsigned integer
// (fields up to 8 bytes, big-endian).
func (r DataRecord) Uint(ie uint16) (uint64, bool) {
	for _, f := range r.Fields {
		if f.ID == ie {
			var v uint64
			for _, b := range f.Value {
				v = v<<8 | uint64(b)
			}
			return v, true
		}
	}
	return 0, false
}

// Message is one decoded IPFIX message.
type Message struct {
	ExportTime uint32
	Sequence   uint32
	Domain     uint32
	Templates  []Template
	Records    []DataRecord
	// SkippedSets counts data sets dropped because their template was
	// unknown to the decoder (a collector joining mid-stream sees these
	// until the next template refresh).
	SkippedSets int
}

// Decoder decodes IPFIX messages, caching templates per observation domain
// across calls the way a collector session does.
type Decoder struct {
	templates map[uint64]Template // domain<<16 | templateID
}

// NewDecoder returns a decoder with an empty template cache.
func NewDecoder() *Decoder {
	return &Decoder{templates: make(map[uint64]Template)}
}

// maxFieldsPerTemplate bounds decoder allocation on adversarial input: a
// 16-bit field count may promise far more specifiers than the message can
// carry, so the cap is what the longest possible set could actually hold.
const maxFieldsPerTemplate = 65535 / 4

// Decode parses one IPFIX message.  It never panics on arbitrary input;
// malformed messages return an error, data sets with unknown templates are
// counted in SkippedSets.
func (d *Decoder) Decode(b []byte) (*Message, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("ipfix: message too short (%d bytes)", len(b))
	}
	if v := binary.BigEndian.Uint16(b); v != version {
		return nil, fmt.Errorf("ipfix: version %d, want %d", v, version)
	}
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length < headerLen || length > len(b) {
		return nil, fmt.Errorf("ipfix: header length %d outside message (%d bytes)", length, len(b))
	}
	m := &Message{
		ExportTime: binary.BigEndian.Uint32(b[4:]),
		Sequence:   binary.BigEndian.Uint32(b[8:]),
		Domain:     binary.BigEndian.Uint32(b[12:]),
	}
	body := b[headerLen:length]
	for len(body) > 0 {
		if len(body) < setHeaderLen {
			return nil, errors.New("ipfix: trailing bytes shorter than a set header")
		}
		setID := binary.BigEndian.Uint16(body)
		setLen := int(binary.BigEndian.Uint16(body[2:]))
		if setLen < setHeaderLen || setLen > len(body) {
			return nil, fmt.Errorf("ipfix: set length %d outside remaining %d bytes", setLen, len(body))
		}
		content := body[setHeaderLen:setLen]
		body = body[setLen:]
		switch {
		case setID == templateSetID:
			if err := d.decodeTemplates(m, content); err != nil {
				return nil, err
			}
		case setID >= MinTemplateID:
			t, ok := d.templates[uint64(m.Domain)<<16|uint64(setID)]
			if !ok {
				m.SkippedSets++
				continue
			}
			if err := decodeDataSet(m, t, content); err != nil {
				return nil, err
			}
		default:
			// Reserved/options sets the exporter never emits: skip.
			m.SkippedSets++
		}
	}
	return m, nil
}

func (d *Decoder) decodeTemplates(m *Message, content []byte) error {
	for len(content) > 0 {
		if len(content) < 4 {
			// RFC 7011 allows up to 3 bytes of padding at the end of a set.
			for _, pad := range content {
				if pad != 0 {
					return errors.New("ipfix: non-zero template set padding")
				}
			}
			return nil
		}
		id := binary.BigEndian.Uint16(content)
		count := int(binary.BigEndian.Uint16(content[2:]))
		content = content[4:]
		if id < MinTemplateID {
			return fmt.Errorf("ipfix: template ID %d below %d", id, MinTemplateID)
		}
		if count > maxFieldsPerTemplate || len(content) < count*4 {
			return fmt.Errorf("ipfix: template %d promises %d fields, %d bytes left", id, count, len(content))
		}
		t := Template{ID: id, Fields: make([]FieldSpec, count)}
		recLen := 0
		for i := 0; i < count; i++ {
			fid := binary.BigEndian.Uint16(content)
			flen := binary.BigEndian.Uint16(content[2:])
			if fid&0x8000 != 0 {
				return fmt.Errorf("ipfix: template %d field %d has the enterprise bit (unsupported)", id, i)
			}
			if flen == 0 || flen == 0xffff {
				return fmt.Errorf("ipfix: template %d field %d has unsupported length %d", id, i, flen)
			}
			t.Fields[i] = FieldSpec{ID: fid, Length: flen}
			recLen += int(flen)
			content = content[4:]
		}
		if recLen == 0 {
			return fmt.Errorf("ipfix: template %d has no fields", id)
		}
		d.templates[uint64(m.Domain)<<16|uint64(t.ID)] = t
		m.Templates = append(m.Templates, t)
	}
	return nil
}

func decodeDataSet(m *Message, t Template, content []byte) error {
	recLen := t.recordLength()
	for len(content) >= recLen {
		rec := DataRecord{TemplateID: t.ID, Fields: make([]FieldValue, len(t.Fields))}
		for i, f := range t.Fields {
			rec.Fields[i] = FieldValue{ID: f.ID, Value: content[:f.Length]}
			content = content[f.Length:]
		}
		m.Records = append(m.Records, rec)
	}
	// Up to 3 bytes of zero padding may remain (RFC 7011 §3.3.1).
	if len(content) > 3 {
		return fmt.Errorf("ipfix: %d leftover bytes in data set for template %d", len(content), t.ID)
	}
	for _, pad := range content {
		if pad != 0 {
			return errors.New("ipfix: non-zero data set padding")
		}
	}
	return nil
}

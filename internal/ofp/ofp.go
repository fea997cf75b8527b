// Package ofp implements the minimal OpenFlow 1.3-style binary wire protocol
// this repository needs: Hello, Echo, FlowMod, PacketIn, PacketOut and
// Barrier messages with a fixed 8-byte header, encoded big-endian.  It is not
// wire-compatible with the official specification — match fields and actions
// use a compact TLV encoding over this repository's field model — but it
// preserves what the Fig. 17/18 experiments need: installing a pipeline
// through a real framed control channel costs encode + transmit + decode per
// flow, which is what bottlenecks update rates in practice.
package ofp

import (
	"encoding/binary"
	"fmt"
	"io"

	"eswitch/internal/openflow"
)

// version is the protocol version byte carried in every header.
const version = 0x04

// MsgType enumerates the supported message types.
type MsgType uint8

// Message types (a subset of OpenFlow 1.3).
const (
	TypeHello          MsgType = 0
	TypeError          MsgType = 1
	TypeEchoRequest    MsgType = 2
	TypeEchoReply      MsgType = 3
	TypePacketIn       MsgType = 10
	TypeFlowRemoved    MsgType = 11
	TypePortStatus     MsgType = 12
	TypePacketOut      MsgType = 13
	TypeFlowMod        MsgType = 14
	TypeBarrierRequest MsgType = 20
	TypeBarrierReply   MsgType = 21
)

// Error types (OpenFlow's OFPET_* values, the subset the agent raises).
const (
	// ErrTypeBadRequest: the request could not be decoded.
	ErrTypeBadRequest uint16 = 1
	// ErrTypeFlowModFailed: a FlowMod was decoded but could not be applied.
	ErrTypeFlowModFailed uint16 = 5
)

// OFPET_FLOW_MOD_FAILED codes (OpenFlow's OFPFMFC_* values).
const (
	FlowModFailedUnknown   uint16 = 0
	FlowModFailedTableFull uint16 = 1
)

// OFPET_BAD_REQUEST codes.
const (
	// BadRequestBadLen covers every decode failure: the framing layer
	// guarantees message boundaries, so a body that fails to decode is a
	// length/structure problem, never a desynchronized stream.
	BadRequestBadLen uint16 = 6
)

// FlowMod commands.
const (
	FlowModAdd    uint8 = 0
	FlowModDelete uint8 = 3
)

// PacketIn reasons (OpenFlow's OFPR_* values).
const (
	// PacketInReasonNoMatch: the packet missed a table whose miss behaviour
	// punts to the controller.
	PacketInReasonNoMatch uint8 = 0
	// PacketInReasonAction: an explicit output:CONTROLLER action.
	PacketInReasonAction uint8 = 1
)

// FlowRemovedReason is why a flow entry was removed (OpenFlow's OFPRR_*
// values).
type FlowRemovedReason uint8

// FlowRemoved reasons.
const (
	// FlowRemovedIdleTimeout: the entry saw no matching packet for
	// IdleTimeout seconds.
	FlowRemovedIdleTimeout FlowRemovedReason = 0
	// FlowRemovedHardTimeout: HardTimeout seconds elapsed since install.
	FlowRemovedHardTimeout FlowRemovedReason = 1
	// FlowRemovedDelete: the entry was removed by a FlowMod delete.
	FlowRemovedDelete FlowRemovedReason = 2
	// FlowRemovedEviction: the switch evicted the entry to reclaim table
	// space (the soft-limit LRU-approximate eviction policy).
	FlowRemovedEviction FlowRemovedReason = 3
)

// PortStatusReason is why a port status changed (OpenFlow's OFPPR_* values).
type PortStatusReason uint8

// PortStatus reasons.
const (
	// PortStatusAdd: the port was added to the switch.
	PortStatusAdd PortStatusReason = 0
	// PortStatusDelete: the port was removed.
	PortStatusDelete PortStatusReason = 1
	// PortStatusModify: the port's state changed — the only reason the port
	// supervisor emits (link transitions of a fixed port set).
	PortStatusModify PortStatusReason = 2
)

// Port state bits carried in PortStatus.State (OFPPS_*-style; Flapping is
// this repository's extension for the supervisor's bouncing-port label).
const (
	// PortStateLinkDown: the port's link is down (OFPPS_LINK_DOWN).
	PortStateLinkDown uint32 = 1 << 0
	// PortStateFlapping: the port recovered but has been bouncing recently.
	PortStateFlapping uint32 = 1 << 3
)

// NoBuffer is the BufferID of a PacketIn/PacketOut that carries the full
// packet inline instead of referencing a switch-side buffer (OFP_NO_BUFFER).
const NoBuffer uint32 = 0xffffffff

// headerLen is the fixed message header size.
const headerLen = 8

// maxMessageLen bounds a single message (headroom for full-size packets in
// PacketIn/PacketOut plus a large match).
const maxMessageLen = 1 << 16

// Message is one framed OpenFlow message.
type Message struct {
	Type MsgType
	Xid  uint32
	Body []byte
}

// WriteMessage frames and writes a message.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Body)+headerLen > maxMessageLen {
		return fmt.Errorf("ofp: message body too large (%d bytes)", len(m.Body))
	}
	hdr := make([]byte, headerLen, headerLen+len(m.Body))
	hdr[0] = version
	hdr[1] = byte(m.Type)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(headerLen+len(m.Body)))
	binary.BigEndian.PutUint32(hdr[4:8], m.Xid)
	_, err := w.Write(append(hdr, m.Body...))
	return err
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	if hdr[0] != version {
		return Message{}, fmt.Errorf("ofp: unsupported version %#x", hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen || length > maxMessageLen {
		return Message{}, fmt.Errorf("ofp: invalid message length %d", length)
	}
	m := Message{Type: MsgType(hdr[1]), Xid: binary.BigEndian.Uint32(hdr[4:8])}
	if length > headerLen {
		m.Body = make([]byte, length-headerLen)
		if _, err := io.ReadFull(r, m.Body); err != nil {
			return Message{}, err
		}
	}
	return m, nil
}

// FlowMod describes a flow-table modification.
type FlowMod struct {
	Command  uint8
	TableID  openflow.TableID
	Priority int32
	Match    *openflow.Match
	// Instructions are carried for Add commands.
	Instructions openflow.Instructions
	// IdleTimeout/HardTimeout carry the entry's lifecycle (seconds; zero
	// means never).  They ride at the end of the body so decoders predating
	// them still parse the rest of the message.
	IdleTimeout uint16
	HardTimeout uint16
}

// FlowRemoved notifies the controller that a flow entry was removed: by the
// lifecycle sweeper (idle/hard timeout, soft-limit eviction) or by an
// explicit delete.  It identifies the entry by table, priority and match, and
// carries the entry's final counters plus its time since installation.
type FlowRemoved struct {
	Reason      FlowRemovedReason
	TableID     openflow.TableID
	Priority    int32
	IdleTimeout uint16
	HardTimeout uint16
	// DurationSec is the whole seconds the entry was installed.
	DurationSec uint32
	// Packets/Bytes are the entry's final counters (zero when the datapath
	// runs with per-entry counters disabled).
	Packets uint64
	Bytes   uint64
	Match   *openflow.Match
}

// PortStatus is a switch-originated port/link-state change notification —
// the control-plane face of the port supervisor's link-state machine,
// delivered over the shared channel like FlowRemoved.
type PortStatus struct {
	// Reason is the supervisor's PortStatusModify: its ports are fixed.
	Reason PortStatusReason
	// PortNo is the 1-based port the event concerns.
	PortNo uint32
	// State is a bitmask of PortState* (0 = link up and steady).
	State uint32
	// Desc names the port's backend for diagnostics ("afpacket:veth0",
	// "pcap", "ring"); it rides as the body's trailing bytes.
	Desc string
}

// PacketIn is a packet punted to the controller.
type PacketIn struct {
	// BufferID identifies the switch-side copy of the packet inside the slow
	// path's buffer-id window (NoBuffer when the switch kept no copy); a
	// PacketOut echoing it within the window may omit the packet data.
	BufferID uint32
	InPort   uint32
	// TableID is the flow table that generated the punt and Reason one of
	// the PacketInReason* values (table miss vs explicit controller output).
	TableID openflow.TableID
	Reason  uint8
	// TotalLen is the original frame length on the wire (OpenFlow's
	// total_len): Data may be a miss_send_len-truncated prefix, and this is
	// how the controller knows.  EncodePacketIn fills it from len(Data)
	// when left zero.
	TotalLen uint16
	Data     []byte
}

// ErrorMsg is an OFPT_ERROR message: the agent's reply to a request it could
// not honor (most importantly OFPET_FLOW_MOD_FAILED/TABLE_FULL, the
// table-capacity guardrail).  Data echoes the failed request's body so the
// controller can identify which flow was rejected.
type ErrorMsg struct {
	Type uint16
	Code uint16
	Data []byte
}

// EncodeError serializes an Error message body.
func EncodeError(em ErrorMsg) []byte {
	e := &encoder{}
	e.u16(em.Type)
	e.u16(em.Code)
	e.bytes(em.Data)
	return e.buf
}

// DecodeError parses an Error message body.
func DecodeError(body []byte) (ErrorMsg, error) {
	d := &decoder{buf: body}
	em := ErrorMsg{Type: d.u16(), Code: d.u16()}
	em.Data = append(em.Data, d.rest()...)
	return em, d.err
}

// PacketOut is a packet the controller injects into the datapath.
type PacketOut struct {
	BufferID uint32
	InPort   uint32
	Actions  openflow.ActionList
	Data     []byte
}

// --- encoding helpers ---------------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)     { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16)   { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32)   { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)   { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) bytes(b []byte) { e.buf = append(e.buf, b...) }

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("ofp: truncated message (need %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) rest() []byte {
	out := d.buf[d.off:]
	d.off = len(d.buf)
	return out
}

func encodeMatch(e *encoder, m *openflow.Match) {
	fields := m.Fields().Fields()
	e.u8(uint8(len(fields)))
	for _, f := range fields {
		v, mask, _ := m.Get(f)
		e.u8(uint8(f))
		e.u64(v)
		e.u64(mask)
	}
}

func decodeMatch(d *decoder) *openflow.Match {
	n := int(d.u8())
	m := openflow.NewMatch()
	for i := 0; i < n && d.err == nil; i++ {
		f := openflow.Field(d.u8())
		v := d.u64()
		mask := d.u64()
		if f < openflow.NumFields {
			m.SetMasked(f, v, mask)
		}
	}
	return m
}

func encodeActions(e *encoder, list openflow.ActionList) {
	e.u8(uint8(len(list)))
	for _, a := range list {
		e.u8(uint8(a.Type))
		e.u32(a.Port)
		e.u8(uint8(a.Field))
		e.u64(a.Value)
	}
}

func decodeActions(d *decoder) openflow.ActionList {
	n := int(d.u8())
	list := make(openflow.ActionList, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		a := openflow.Action{
			Type:  openflow.ActionType(d.u8()),
			Port:  d.u32(),
			Field: openflow.Field(d.u8()),
			Value: d.u64(),
		}
		list = append(list, a)
	}
	return list
}

// EncodeFlowMod serializes a FlowMod message body.
func EncodeFlowMod(fm FlowMod) []byte {
	e := &encoder{}
	e.u8(fm.Command)
	e.u16(uint16(fm.TableID))
	e.u32(uint32(fm.Priority))
	encodeMatch(e, fm.Match)
	encodeActions(e, fm.Instructions.ApplyActions)
	encodeActions(e, fm.Instructions.WriteActions)
	flags := uint8(0)
	if fm.Instructions.HasGoto {
		flags |= 1
	}
	if fm.Instructions.ClearActions {
		flags |= 2
	}
	e.u8(flags)
	e.u16(uint16(fm.Instructions.GotoTable))
	e.u64(fm.Instructions.WriteMetadata)
	e.u64(fm.Instructions.MetadataMask)
	// Lifecycle timeouts ride at the end of the body (see FlowMod).
	e.u16(fm.IdleTimeout)
	e.u16(fm.HardTimeout)
	return e.buf
}

// DecodeFlowMod parses a FlowMod message body.
func DecodeFlowMod(body []byte) (FlowMod, error) {
	d := &decoder{buf: body}
	fm := FlowMod{
		Command:  d.u8(),
		TableID:  openflow.TableID(d.u16()),
		Priority: int32(d.u32()),
	}
	fm.Match = decodeMatch(d)
	fm.Instructions.ApplyActions = decodeActions(d)
	fm.Instructions.WriteActions = decodeActions(d)
	flags := d.u8()
	fm.Instructions.HasGoto = flags&1 != 0
	fm.Instructions.ClearActions = flags&2 != 0
	fm.Instructions.GotoTable = openflow.TableID(d.u16())
	fm.Instructions.WriteMetadata = d.u64()
	fm.Instructions.MetadataMask = d.u64()
	if d.err == nil && d.off < len(d.buf) {
		// Trailing lifecycle timeouts; absent in bodies from encoders that
		// predate them, which decode as zero (never expire).
		fm.IdleTimeout = d.u16()
		fm.HardTimeout = d.u16()
	}
	if len(fm.Instructions.ApplyActions) == 0 {
		fm.Instructions.ApplyActions = nil
	}
	if len(fm.Instructions.WriteActions) == 0 {
		fm.Instructions.WriteActions = nil
	}
	return fm, d.err
}

// EncodeFlowRemoved serializes a FlowRemoved message body.
func EncodeFlowRemoved(fr FlowRemoved) []byte {
	e := &encoder{}
	e.u8(uint8(fr.Reason))
	e.u16(uint16(fr.TableID))
	e.u32(uint32(fr.Priority))
	e.u16(fr.IdleTimeout)
	e.u16(fr.HardTimeout)
	e.u32(fr.DurationSec)
	e.u64(fr.Packets)
	e.u64(fr.Bytes)
	encodeMatch(e, fr.Match)
	return e.buf
}

// DecodeFlowRemoved parses a FlowRemoved message body.
func DecodeFlowRemoved(body []byte) (FlowRemoved, error) {
	d := &decoder{buf: body}
	fr := FlowRemoved{
		Reason:      FlowRemovedReason(d.u8()),
		TableID:     openflow.TableID(d.u16()),
		Priority:    int32(d.u32()),
		IdleTimeout: d.u16(),
		HardTimeout: d.u16(),
		DurationSec: d.u32(),
		Packets:     d.u64(),
		Bytes:       d.u64(),
	}
	fr.Match = decodeMatch(d)
	return fr, d.err
}

// EncodePortStatus serializes a PortStatus message body.
func EncodePortStatus(ps PortStatus) []byte {
	e := &encoder{}
	e.u8(uint8(ps.Reason))
	e.u32(ps.PortNo)
	e.u32(ps.State)
	e.bytes([]byte(ps.Desc))
	return e.buf
}

// DecodePortStatus parses a PortStatus message body.
func DecodePortStatus(body []byte) (PortStatus, error) {
	d := &decoder{buf: body}
	ps := PortStatus{Reason: PortStatusReason(d.u8()), PortNo: d.u32(), State: d.u32()}
	ps.Desc = string(d.rest())
	return ps, d.err
}

// EncodePacketIn serializes a PacketIn message body.  A zero TotalLen is
// encoded as len(Data) — untruncated PacketIns need not fill it in.
func EncodePacketIn(pi PacketIn) []byte {
	e := &encoder{}
	e.u32(pi.BufferID)
	e.u32(pi.InPort)
	e.u16(uint16(pi.TableID))
	e.u8(pi.Reason)
	total := pi.TotalLen
	if total == 0 {
		n := len(pi.Data)
		if n > 0xffff {
			n = 0xffff
		}
		total = uint16(n)
	}
	e.u16(total)
	e.bytes(pi.Data)
	return e.buf
}

// DecodePacketIn parses a PacketIn message body.
func DecodePacketIn(body []byte) (PacketIn, error) {
	d := &decoder{buf: body}
	pi := PacketIn{BufferID: d.u32(), InPort: d.u32(), TableID: openflow.TableID(d.u16()), Reason: d.u8(), TotalLen: d.u16()}
	pi.Data = pi.Data[:0]
	pi.Data = append(pi.Data, d.rest()...)
	return pi, d.err
}

// EncodePacketOut serializes a PacketOut message body.
func EncodePacketOut(po PacketOut) []byte {
	e := &encoder{}
	e.u32(po.BufferID)
	e.u32(po.InPort)
	encodeActions(e, po.Actions)
	e.bytes(po.Data)
	return e.buf
}

// DecodePacketOut parses a PacketOut message body.
func DecodePacketOut(body []byte) (PacketOut, error) {
	d := &decoder{buf: body}
	po := PacketOut{BufferID: d.u32(), InPort: d.u32()}
	po.Actions = decodeActions(d)
	po.Data = append(po.Data, d.rest()...)
	return po, d.err
}

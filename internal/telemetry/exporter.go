package telemetry

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/ipfix"
	"eswitch/internal/openflow"
)

// FlowSource is where the exporter samples per-flow counters.  The compiled
// datapath satisfies it: FlowSamples is the same locked off-path walk the
// lifecycle sweeper performs, so export and expiry observe flows
// identically and the worker hot path never notices either.
type FlowSource interface {
	FlowSamples(buf []core.FlowSample) []core.FlowSample
}

// Sink receives encoded IPFIX messages.
type Sink interface {
	Emit(msg []byte) error
	Close() error
}

// udpSink emits each IPFIX message as one UDP datagram (the RFC 7011
// deployment default).
type udpSink struct{ conn net.Conn }

// newUDPSink dials addr ("host:port").
func newUDPSink(addr string) (*udpSink, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &udpSink{conn: conn}, nil
}

func (s *udpSink) Emit(msg []byte) error { _, err := s.conn.Write(msg); return err }
func (s *udpSink) Close() error          { return s.conn.Close() }

// fileSink appends length-prefixed IPFIX messages to a file: each message is
// preceded by a 4-byte big-endian length so a reader can re-frame the stream
// (IPFIX message headers carry a length too; the prefix just makes framing
// recovery trivial).
type fileSink struct {
	mu sync.Mutex
	f  *os.File
}

// newFileSink creates (truncating) the file at path.
func newFileSink(path string) (*fileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &fileSink{f: f}, nil
}

func (s *fileSink) Emit(msg []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pfx [4]byte
	pfx[0] = byte(len(msg) >> 24)
	pfx[1] = byte(len(msg) >> 16)
	pfx[2] = byte(len(msg) >> 8)
	pfx[3] = byte(len(msg))
	if _, err := s.f.Write(pfx[:]); err != nil {
		return err
	}
	_, err := s.f.Write(msg)
	return err
}

func (s *fileSink) Close() error { return s.f.Close() }

// MemorySink buffers emitted messages in memory (tests and the
// reconciliation experiment).
type MemorySink struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (s *MemorySink) Emit(msg []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, append([]byte(nil), msg...))
	return nil
}

func (s *MemorySink) Close() error { return nil }

// ParseSink builds a sink from a -flow-export style spec:
//
//	udp:host:port   IPFIX over UDP datagrams
//	file:path       length-prefixed IPFIX messages appended to a file
func ParseSink(spec string) (Sink, error) {
	switch {
	case strings.HasPrefix(spec, "udp:"):
		return newUDPSink(strings.TrimPrefix(spec, "udp:"))
	case strings.HasPrefix(spec, "file:"):
		return newFileSink(strings.TrimPrefix(spec, "file:"))
	default:
		return nil, fmt.Errorf("telemetry: unknown export sink %q (want udp:host:port or file:path)", spec)
	}
}

// ExporterConfig tunes the flow exporter.  Zero values take the defaults.
type ExporterConfig struct {
	// Domain is the IPFIX observation domain ID stamped on every message.
	Domain uint32
	// PollInterval is how often the flow table is sampled (default 1s).
	PollInterval time.Duration
	// ActiveTimeout forces an export of a still-active flow's accumulated
	// delta at least this often (default 30s), so long-lived flows appear
	// in the export stream before they end.
	ActiveTimeout time.Duration
	// IdleTimeout exports a flow's remaining delta once its counters stop
	// advancing for this long (default 10s).
	IdleTimeout time.Duration
}

func (c *ExporterConfig) defaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = time.Second
	}
	if c.ActiveTimeout <= 0 {
		c.ActiveTimeout = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Second
	}
}

// flowTemplate is the exporter's IPFIX template: the flow's 5-tuple and
// ingress port (as matched by the flow entry; unmatched fields export as
// zero), delta counters, millisecond timestamps and the end reason.
func flowTemplate() ipfix.Template {
	return ipfix.Template{ID: ipfix.MinTemplateID, Fields: []ipfix.FieldSpec{
		{ID: ipfix.IEIngressInterface, Length: 4},
		{ID: ipfix.IESourceIPv4Address, Length: 4},
		{ID: ipfix.IEDestinationIPv4Address, Length: 4},
		{ID: ipfix.IESourceTransportPort, Length: 2},
		{ID: ipfix.IEDestinationTransportPort, Length: 2},
		{ID: ipfix.IEProtocolIdentifier, Length: 1},
		{ID: ipfix.IEPacketDeltaCount, Length: 8},
		{ID: ipfix.IEOctetDeltaCount, Length: 8},
		{ID: ipfix.IEFlowStartMilliseconds, Length: 8},
		{ID: ipfix.IEFlowEndMilliseconds, Length: 8},
		{ID: ipfix.IEFlowEndReason, Length: 1},
	}}
}

// flowState is the exporter's per-flow-entry delta tracker, keyed on the
// entry's identity pointer (stable for the entry's lifetime, fresh across a
// replace — the same keying the lifecycle sweeper uses).
type flowState struct {
	firstSeen  time.Time
	lastActive time.Time // counters last advanced
	lastExport time.Time
	// cur mirrors the entry's running totals; exp is what has already been
	// exported, so cur-exp is the pending delta.
	curPackets, curBytes uint64
	expPackets, expBytes uint64
	// 5-tuple extracted from the entry's match (exact fields only).
	ingress      uint32
	srcIP, dstIP uint32
	sport, dport uint16
	proto        uint8
	seen         bool // mark/sweep against disappeared entries
}

// FlowExporter samples per-flow counters off the flow table and exports
// IPFIX flow records.  It is entirely off-path: each poll is one locked
// FlowSamples walk (the sweeper's cadence), encoding and sink I/O happen on
// the exporter goroutine.
type FlowExporter struct {
	src  FlowSource
	sink Sink
	cfg  ExporterConfig

	mu    sync.Mutex
	enc   *ipfix.Encoder
	tmpl  ipfix.Template
	state map[*openflow.FlowEntry]*flowState
	buf   []core.FlowSample
	rec   ipfix.RecordBuilder

	stop chan struct{}
	done chan struct{}

	messages atomic.Uint64
	records  atomic.Uint64
	errors   atomic.Uint64
	tracked  atomic.Uint64
}

// NewFlowExporter builds an exporter over src emitting to sink.  Call Start
// for the periodic loop; Flush exports on demand.
func NewFlowExporter(src FlowSource, sink Sink, cfg ExporterConfig) *FlowExporter {
	cfg.defaults()
	return &FlowExporter{
		src:   src,
		sink:  sink,
		cfg:   cfg,
		enc:   ipfix.NewEncoder(cfg.Domain),
		tmpl:  flowTemplate(),
		state: map[*openflow.FlowEntry]*flowState{},
	}
}

// Start launches the periodic poll loop.
func (e *FlowExporter) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stop != nil {
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go e.loop(e.stop, e.done)
}

func (e *FlowExporter) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(e.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			e.mu.Lock()
			e.poll(time.Now())
			e.mu.Unlock()
		}
	}
}

// Close stops the loop, exports every remaining delta with a forced-end
// reason, and closes the sink.
func (e *FlowExporter) Close() error {
	e.mu.Lock()
	stop, done := e.stop, e.done
	e.stop, e.done = nil, nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	e.Flush()
	return e.sink.Close()
}

// Messages returns how many IPFIX messages were emitted.
func (e *FlowExporter) Messages() uint64 { return e.messages.Load() }

// Records returns how many flow data records were emitted.
func (e *FlowExporter) Records() uint64 { return e.records.Load() }

// Errors returns how many sink writes failed.
func (e *FlowExporter) Errors() uint64 { return e.errors.Load() }

// Tracked returns how many flow entries are currently tracked.
func (e *FlowExporter) Tracked() uint64 { return e.tracked.Load() }

// Flush exports every pending delta immediately (forced end), regardless of
// timers — shutdown and test cadence.
func (e *FlowExporter) Flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := time.Now()
	e.buf = e.src.FlowSamples(e.buf)
	for _, s := range e.buf {
		st := e.track(s, now)
		st.curPackets, st.curBytes = s.Packets, s.Bytes
	}
	var recs []exportRecord
	for entry, st := range e.state {
		if st.curPackets > st.expPackets || st.curBytes > st.expBytes {
			recs = append(recs, e.makeRecord(st, now, ipfix.EndReasonForcedEnd))
		}
		delete(e.state, entry)
	}
	e.tracked.Store(0)
	e.emit(now, recs)
}

// exportRecord is one pending data record.
type exportRecord struct {
	st      *flowState
	pkts    uint64
	bytes   uint64
	end     time.Time
	reason  uint8
	ingress uint32
	srcIP   uint32
	dstIP   uint32
	sport   uint16
	dport   uint16
	proto   uint8
	start   time.Time
}

func (e *FlowExporter) makeRecord(st *flowState, end time.Time, reason uint8) exportRecord {
	r := exportRecord{
		st: st, reason: reason,
		pkts: st.curPackets - st.expPackets, bytes: st.curBytes - st.expBytes,
		start: st.firstSeen, end: end,
		ingress: st.ingress, srcIP: st.srcIP, dstIP: st.dstIP,
		sport: st.sport, dport: st.dport, proto: st.proto,
	}
	st.expPackets, st.expBytes = st.curPackets, st.curBytes
	st.lastExport = end
	return r
}

// track returns (creating if needed) the sample's delta state.
func (e *FlowExporter) track(s core.FlowSample, now time.Time) *flowState {
	st := e.state[s.Entry]
	if st == nil {
		st = &flowState{firstSeen: now, lastActive: now, lastExport: now}
		if s.Match != nil {
			if v, _, ok := s.Match.Get(openflow.FieldInPort); ok {
				st.ingress = uint32(v)
			}
			if v, _, ok := s.Match.Get(openflow.FieldIPSrc); ok {
				st.srcIP = uint32(v)
			}
			if v, _, ok := s.Match.Get(openflow.FieldIPDst); ok {
				st.dstIP = uint32(v)
			}
			if v, _, ok := s.Match.Get(openflow.FieldIPProto); ok {
				st.proto = uint8(v)
			}
			for _, f := range [...]openflow.Field{openflow.FieldTCPSrc, openflow.FieldUDPSrc, openflow.FieldSCTPSrc} {
				if v, _, ok := s.Match.Get(f); ok {
					st.sport = uint16(v)
				}
			}
			for _, f := range [...]openflow.Field{openflow.FieldTCPDst, openflow.FieldUDPDst, openflow.FieldSCTPDst} {
				if v, _, ok := s.Match.Get(f); ok {
					st.dport = uint16(v)
				}
			}
		}
		e.state[s.Entry] = st
	}
	st.seen = true
	return st
}

// poll is the timer-driven export pass (callers hold e.mu).
func (e *FlowExporter) poll(now time.Time) {
	e.buf = e.src.FlowSamples(e.buf)
	for _, st := range e.state {
		st.seen = false
	}
	var recs []exportRecord
	for _, s := range e.buf {
		st := e.track(s, now)
		if s.Packets > st.curPackets || s.Bytes > st.curBytes {
			st.lastActive = now
		}
		st.curPackets, st.curBytes = s.Packets, s.Bytes
		pending := st.curPackets > st.expPackets || st.curBytes > st.expBytes
		switch {
		case pending && now.Sub(st.lastActive) >= e.cfg.IdleTimeout:
			recs = append(recs, e.makeRecord(st, st.lastActive, ipfix.EndReasonIdleTimeout))
		case pending && now.Sub(st.lastExport) >= e.cfg.ActiveTimeout:
			recs = append(recs, e.makeRecord(st, now, ipfix.EndReasonActiveTimeout))
		}
	}
	// Entries gone from the table (expired, evicted, replaced): export the
	// remaining delta and forget them.
	for entry, st := range e.state {
		if st.seen {
			continue
		}
		if st.curPackets > st.expPackets || st.curBytes > st.expBytes {
			recs = append(recs, e.makeRecord(st, now, ipfix.EndReasonEndOfFlow))
		}
		delete(e.state, entry)
	}
	e.tracked.Store(uint64(len(e.state)))
	e.emit(now, recs)
}

// emit encodes recs into one IPFIX message (template set included in every
// message, so any observer can decode from any point in the stream) and
// writes it to the sink.  No records → no message.
func (e *FlowExporter) emit(now time.Time, recs []exportRecord) {
	if len(recs) == 0 {
		return
	}
	e.enc.Begin(uint32(now.Unix()))
	e.enc.Templates(e.tmpl)
	e.enc.BeginDataSet(e.tmpl)
	for _, r := range recs {
		e.rec.Reset()
		e.rec.Uint32(r.ingress).
			Uint32(r.srcIP).Uint32(r.dstIP).
			Uint16(r.sport).Uint16(r.dport).
			Uint8(r.proto).
			Uint64(r.pkts).Uint64(r.bytes).
			Uint64(uint64(r.start.UnixMilli())).Uint64(uint64(r.end.UnixMilli())).
			Uint8(r.reason)
		if err := e.enc.Record(e.rec.Bytes()); err != nil {
			e.errors.Add(1)
			continue
		}
		e.records.Add(1)
	}
	msg := e.enc.Finish()
	if err := e.sink.Emit(msg); err != nil {
		e.errors.Add(1)
		return
	}
	e.messages.Add(1)
}

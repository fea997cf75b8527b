package slowpath

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
)

// Executor is the dataplane surface the service needs to execute PacketOut
// messages; dpdk.Switch implements it.  (The eswitch facade offers the same
// semantics under a different signature — its PacketOut returns the merged
// verdict instead of transmitting, since the facade has no ports — so a
// facade-level slow path needs a one-line adapter, not this interface.)
type Executor interface {
	// PacketOut executes a controller-supplied action list against the frame
	// as if it had been received on inPort: output:TABLE re-injects the
	// frame through the compiled pipeline and forwards the resulting
	// verdict, physical outputs transmit the frame directly.
	PacketOut(inPort uint32, frame []byte, actions openflow.ActionList) error
}

// Sink receives the PacketIns the service generates — in production a framed
// write to the control channel, in tests an in-memory collector.  It is
// called from the service goroutine only.
type Sink func(pi ofp.PacketIn) error

// Config parameterizes a Service.
type Config struct {
	// Rings are the per-worker punt rings to drain (round-robin).
	Rings []*Ring
	// RatePPS caps PacketIn delivery (token bucket; <= 0 means unlimited).
	// This is OVS-style controller rate limiting: punts beyond the budget
	// wait in their rings and eventually overflow there, so a miss storm
	// translates into bounded controller load plus accounted ring drops —
	// never fast-path backpressure.
	RatePPS int
	// Burst is the token-bucket depth (how far delivery may exceed RatePPS
	// transiently); defaults to max(32, RatePPS/50).
	Burst int
	// Window is the buffer-id window size: the service keeps copies of the
	// last Window punted frames so PacketOuts within the window can omit
	// the packet data.  0 disables buffering (every PacketIn carries
	// NoBuffer and its full data — which it does anyway; the window only
	// adds the switch-side copy a data-less PacketOut needs).
	Window int
	// MissSendLen, when positive, truncates every PacketIn's data to the
	// first MissSendLen bytes (OpenFlow's miss_send_len); the original
	// frame length still rides in the PacketIn header's TotalLen, and the
	// buffer-id window keeps the untruncated frame so a data-less
	// PacketOut replays the whole packet.  0 sends the full punted frame.
	MissSendLen int
	// Send delivers encoded PacketIns (required).
	Send Sink
	// Executor executes PacketOut action lists (optional; PacketOuts fail
	// when nil).
	Executor Executor
}

// bufFrame is one buffer-id window entry.
type bufFrame struct {
	id    uint32
	frame []byte
}

// Service drains the per-worker punt rings and speaks the packet-in /
// packet-out half of the OpenFlow channel.  One goroutine (Run) owns the
// draining; HandlePacketOut may be called concurrently from the control
// channel's reader goroutine.
type Service struct {
	cfg   Config
	rings []*Ring

	// rec and cursor are owned by the Run goroutine.
	rec    PuntRecord
	cursor int

	// Token bucket (Run-goroutine-owned).
	tokens float64
	last   time.Time

	// The buffer-id window is shared between the Run goroutine (stores) and
	// HandlePacketOut (lookups), hence the mutex; both are off the fast path.
	mu      sync.Mutex
	window  []bufFrame
	nextBuf uint32

	delivered  atomic.Uint64
	sendErrs   atomic.Uint64
	packetOuts atomic.Uint64
	// ringDelivered counts deliveries per source ring — the fair-drain
	// ledger: under a storm concentrated on one ring, round-robin draining
	// must keep every other ring's count advancing.
	ringDelivered []atomic.Uint64
}

// NewService validates the config and returns a service ready to Run.
func NewService(cfg Config) (*Service, error) {
	if cfg.Send == nil {
		return nil, fmt.Errorf("slowpath: Config.Send is required")
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 32
		if cfg.RatePPS/50 > cfg.Burst {
			cfg.Burst = cfg.RatePPS / 50
		}
	}
	s := &Service{cfg: cfg, rings: cfg.Rings, ringDelivered: make([]atomic.Uint64, len(cfg.Rings))}
	if cfg.Window > 0 {
		s.window = make([]bufFrame, cfg.Window)
		for i := range s.window {
			s.window[i].id = ofp.NoBuffer
		}
	}
	s.last = time.Now()
	s.tokens = float64(cfg.Burst)
	return s, nil
}

// Delivered returns how many PacketIns were successfully sent.
func (s *Service) Delivered() uint64 { return s.delivered.Load() }

// SendErrors returns how many PacketIns were popped from a ring but lost to
// a failing control channel.
func (s *Service) SendErrors() uint64 { return s.sendErrs.Load() }

// take consumes one delivery token, refilling the bucket from wall time; it
// reports false when the bucket is empty (the caller should back off for
// about one token interval).
func (s *Service) take() bool {
	if s.cfg.RatePPS <= 0 {
		return true
	}
	now := time.Now()
	if d := now.Sub(s.last); d > 0 {
		s.tokens += d.Seconds() * float64(s.cfg.RatePPS)
		if max := float64(s.cfg.Burst); s.tokens > max {
			s.tokens = max
		}
		s.last = now
	}
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// bufferFrame stores a copy of the frame in the buffer-id window and returns
// its buffer id (NoBuffer when the window is disabled).
func (s *Service) bufferFrame(frame []byte) uint32 {
	if len(s.window) == 0 {
		return ofp.NoBuffer
	}
	s.mu.Lock()
	id := s.nextBuf
	s.nextBuf++
	if s.nextBuf == ofp.NoBuffer {
		s.nextBuf = 0 // never hand out the sentinel
	}
	e := &s.window[int(id)%len(s.window)]
	e.id = id
	e.frame = append(e.frame[:0], frame...)
	s.mu.Unlock()
	return id
}

// lookupBuffer returns the buffered frame for a buffer id still inside the
// window (copied, so a concurrent overwrite cannot tear it).
func (s *Service) lookupBuffer(id uint32) ([]byte, bool) {
	if id == ofp.NoBuffer || len(s.window) == 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &s.window[int(id)%len(s.window)]
	if e.id != id {
		return nil, false // overwritten: the PacketOut arrived too late
	}
	return append([]byte(nil), e.frame...), true
}

// deliver encodes one punt record (popped from ring `ring`) as a PacketIn
// and sends it.  The buffer-id window keeps the whole ring-capped frame; the
// PacketIn's data is additionally cut to MissSendLen, with the original
// on-the-wire length preserved in TotalLen.
func (s *Service) deliver(ring int, rec *PuntRecord) {
	reason := ofp.PacketInReasonAction
	if rec.Reason == openflow.PuntMiss {
		reason = ofp.PacketInReasonNoMatch
	}
	data := rec.Frame
	if n := s.cfg.MissSendLen; n > 0 && len(data) > n {
		data = data[:n]
	}
	total := rec.TotalLen
	if total > 0xffff {
		total = 0xffff
	}
	pi := ofp.PacketIn{
		BufferID: s.bufferFrame(rec.Frame),
		InPort:   rec.InPort,
		TableID:  rec.Table,
		Reason:   reason,
		TotalLen: uint16(total),
		Data:     data,
	}
	if err := s.cfg.Send(pi); err != nil {
		s.sendErrs.Add(1)
		return
	}
	s.delivered.Add(1)
	if ring >= 0 && ring < len(s.ringDelivered) {
		s.ringDelivered[ring].Add(1)
	}
}

// Poll drains at most one record from each ring (continuing round-robin from
// where the previous Poll stopped) under the rate limit, returning how many
// PacketIns it delivered.  It returns -1 when the token bucket is empty so
// the caller can sleep a token interval instead of spinning.
func (s *Service) Poll() int {
	n := 0
	for i := 0; i < len(s.rings); i++ {
		idx := (s.cursor + i) % len(s.rings)
		ring := s.rings[idx]
		if ring.Len() == 0 {
			continue
		}
		if !s.take() {
			s.cursor = idx
			if n == 0 {
				return -1
			}
			return n
		}
		if ring.Pop(&s.rec) {
			s.deliver(idx, &s.rec)
			n++
		}
	}
	if len(s.rings) > 0 {
		s.cursor = (s.cursor + 1) % len(s.rings)
	}
	return n
}

// flush delivers what the rings held when it began, WITHOUT consuming rate
// tokens — the shutdown path.  It stops there because the producers may
// still be pushing (a fail-normal switch keeps punting between sessions),
// and a sweep chasing them would never return.
func (s *Service) flush() {
	for idx, ring := range s.rings {
		for n := ring.Len(); n > 0 && ring.Pop(&s.rec); n-- {
			s.deliver(idx, &s.rec)
		}
	}
}

// Run drains the rings until stop is closed, sleeping briefly when idle or
// rate-limited.  On shutdown it makes a final sweep so records already
// punted are delivered; the sweep bypasses the rate limiter — it is bounded
// by the rings' capacity, and stranding accepted punts would break the
// delivered+drops==punted accounting consumers rely on.  (The rings'
// producers may still be running; anything punted after the sweep began
// stays queued and is accounted as queued, not lost.)
func (s *Service) Run(stop <-chan struct{}) {
	idle := 0
	for {
		select {
		case <-stop:
			s.flush()
			return
		default:
		}
		switch n := s.Poll(); {
		case n > 0:
			idle = 0
		case n < 0:
			// Rate-limited: sleep roughly one token interval.
			d := time.Second / time.Duration(maxInt(s.cfg.RatePPS, 1))
			if d > time.Millisecond {
				d = time.Millisecond
			}
			time.Sleep(d)
		default:
			idle++
			if idle < 64 {
				// Stay hot through short gaps between bursts.
				continue
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// HandlePacketOut executes one PacketOut message: the frame is taken from
// the message data or, when absent, from the buffer-id window, and the
// action list runs through the executor.  Safe to call concurrently with
// Run.
func (s *Service) HandlePacketOut(po ofp.PacketOut) error {
	frame := po.Data
	if len(frame) == 0 {
		buffered, ok := s.lookupBuffer(po.BufferID)
		if !ok {
			return fmt.Errorf("slowpath: packet-out references buffer %d outside the window and carries no data", po.BufferID)
		}
		frame = buffered
	}
	if s.cfg.Executor == nil {
		return fmt.Errorf("slowpath: no executor configured for packet-out")
	}
	s.packetOuts.Add(1)
	return s.cfg.Executor.PacketOut(po.InPort, frame, po.Actions)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

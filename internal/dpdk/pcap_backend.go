package dpdk

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"eswitch/internal/pcap"
	"eswitch/internal/pkt"
)

// errTraceExhausted is the fatal queue error a non-looping replay reports
// once a queue has delivered its last frame: the port supervisor sees it and
// transitions the port Down (there is nothing to reopen): exhaustion is the
// link-state signal.
var errTraceExhausted = errors.New("dpdk: pcap trace exhausted")

// PcapBackend replays a captured trace through the switch: every record of a
// classic libpcap file becomes an RX frame, demultiplexed across the
// configured queues by the same symmetric RSS hash a multi-queue NIC would
// use, so a real capture exercises the pipeline with its true packet-size
// and flow-arrival distributions instead of pktgen synthetics.
//
// The whole trace is preloaded at open (like a warmed page cache) and
// delivery recycles per-queue slot buffers the way NIC DMA rings recycle
// descriptors: a frame returned by RxBurst is valid only until the next
// RxBurst on that queue, and the steady-state replay path allocates nothing
// and takes no locks.  Transmission is a counted sink — replay measures the
// pipeline, not a wire — so pair pcap ingress ports with NullBackend egress
// ports.
//
// Replay is flat-out, bounded only by the caller's burst size: capture
// timestamps are ignored, so a replay measures the switch, not the trace's
// own cadence.
type PcapBackend struct {
	queues []pcapQueue
	loop   bool

	rxPackets atomic.Uint64
	txPackets atomic.Uint64
	closed    atomic.Bool
}

// pcapQueue is one RX queue's share of the trace.  Each queue has exactly
// one polling worker, so none of this needs synchronization.
type pcapQueue struct {
	frames [][]byte
	cursor int
	// slots are the recycled delivery buffers (grown to the caller's burst
	// size on first use, then steady-state zero-alloc).
	slots   [][]byte
	slotCap int
	// done is set by the polling worker once a non-looping queue has
	// delivered its last frame — the single-writer flag QueueError reads
	// from other goroutines (cursor itself is unsynchronized worker state).
	done atomic.Bool
}

// PcapConfig configures OpenPcapBackend.
type PcapConfig struct {
	// Queues is the RX queue count frames are RSS-demultiplexed over
	// (<= 0 selects 1).
	Queues int
	// Loop restarts the trace when it runs out instead of going quiet.
	Loop bool
}

// OpenPcapBackend preloads a classic libpcap capture file into a replay
// backend.
func OpenPcapBackend(path string, cfg PcapConfig) (*PcapBackend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dpdk: pcap backend: %w", err)
	}
	defer f.Close()
	records, err := pcap.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("dpdk: pcap backend %s: %w", path, err)
	}
	return newPcapBackend(records, cfg)
}

// newPcapBackend builds a replay backend from already-decoded capture
// records (what OpenPcapBackend does after reading the file; tests and
// generators use it directly).
func newPcapBackend(records []pcap.Packet, cfg PcapConfig) (*PcapBackend, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("dpdk: pcap backend: empty trace")
	}
	nq := cfg.Queues
	if nq < 1 {
		nq = 1
	}
	b := &PcapBackend{
		queues: make([]pcapQueue, nq),
		loop:   cfg.Loop,
	}
	maxLen := 0
	for _, rec := range records {
		// Copy out of the decoder's buffers so the trace owns its frames.
		frame := append([]byte(nil), rec.Data...)
		if len(frame) > maxLen {
			maxLen = len(frame)
		}
		q := 0
		if nq > 1 {
			q = int(pkt.RSSHash(frame) % uint32(nq))
		}
		pq := &b.queues[q]
		pq.frames = append(pq.frames, frame)
	}
	for i := range b.queues {
		b.queues[i].slotCap = maxLen
		// A queue the RSS split left empty has nothing to deliver: mark it
		// exhausted up front so it never has to be polled to report so.
		if !b.loop && len(b.queues[i].frames) == 0 {
			b.queues[i].done.Store(true)
		}
	}
	return b, nil
}

// Queues implements PortBackend.
func (b *PcapBackend) Queues() int { return len(b.queues) }

// RxBurst implements PortBackend: deliver the next frames of queue q, up to
// the caller's burst size, into recycled slot buffers.
func (b *PcapBackend) RxBurst(q int, out [][]byte) int {
	if b.closed.Load() {
		return 0
	}
	pq := &b.queues[q]
	if pq.cursor >= len(pq.frames) {
		if !b.loop || len(pq.frames) == 0 {
			pq.done.Store(true)
			return 0
		}
		pq.cursor = 0
	}
	n := min(len(pq.frames)-pq.cursor, len(out))
	for i := 0; i < n; i++ {
		src := pq.frames[pq.cursor+i]
		if i >= len(pq.slots) {
			pq.slots = append(pq.slots, make([]byte, pq.slotCap))
		}
		slot := pq.slots[i][:len(src)]
		copy(slot, src)
		out[i] = slot
	}
	pq.cursor += n
	b.rxPackets.Add(uint64(n))
	if !b.loop && pq.cursor >= len(pq.frames) {
		pq.done.Store(true)
	}
	return n
}

// TxBurst implements PortBackend: replay transmission is a counted sink.
func (b *PcapBackend) TxBurst(q int, frames [][]byte) int {
	if b.closed.Load() {
		return 0
	}
	if len(frames) > 0 {
		b.txPackets.Add(uint64(len(frames)))
	}
	return len(frames)
}

// TransmitSlow implements SlowPathTransmitter (counted and discarded).
func (b *PcapBackend) TransmitSlow(frame []byte) bool {
	if b.closed.Load() {
		return false
	}
	b.txPackets.Add(1)
	return true
}

// QueueError implements PortBackend: an exhausted non-looping queue is a
// fatal condition (the trace cannot produce more frames), which is how the
// port supervisor learns the replay ended and takes the port Down.
func (b *PcapBackend) QueueError(q int) error {
	if b.closed.Load() {
		return nil
	}
	if b.queues[q].done.Load() {
		return errTraceExhausted
	}
	return nil
}

// Stats implements PortBackend.
func (b *PcapBackend) Stats() PortStats {
	return PortStats{
		RxPackets: b.rxPackets.Load(),
		TxPackets: b.txPackets.Load(),
	}
}

// Close implements PortBackend (idempotent; the file was fully read at
// open, so Close only quiesces delivery).
func (b *PcapBackend) Close() error {
	b.closed.Store(true)
	return nil
}

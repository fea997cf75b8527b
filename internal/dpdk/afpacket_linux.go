//go:build linux

package dpdk

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// AFPacketBackend is real packet I/O: a raw AF_PACKET socket bound to one
// Linux network interface, so the switch forwards actual frames between veth
// pairs or physical NICs instead of simulated rings.  This is the
// PACKET_MMAP-free first cut — one recvfrom/write syscall per frame, batched
// at the burst level by non-blocking reads — which is plenty to carry the
// end-to-end story; a shared-ring PACKET_RX_RING upgrade can slot in behind
// the same PortBackend contract later.
//
// The backend is single-queue (Queues() == 1): the kernel does not shard one
// packet socket, so worker 0 owns the interface.  Received frames are
// delivered in recycled slot buffers, valid until the next RxBurst, exactly
// like the pcap backend.  Per-syscall cost makes this backend's ceiling far
// below the ring backend's — it exists for real-traffic correctness, not for
// Mpps records.
//
// Failure surfacing: errnos split into backpressure (EAGAIN/ENOBUFS — the
// burst ends and the worker drops the rest), transient noise (counted in RxErrors/
// TxErrors, burst ends), and fatal conditions (EBADF, ENETDOWN, ENXIO,
// ENODEV, EIO — the fd is dead).  A fatal errno is recorded in the queue's
// error slot where QueueError exposes it; the port supervisor then takes
// the port Down and calls Reopen, which re-dials the socket.
type AFPacketBackend struct {
	// fd is the packet socket, atomic because Reopen swaps in a fresh one
	// while the supervisor owns the (quiesced) port.
	fd    atomic.Int64
	iface string
	// slots are the recycled receive buffers (grown to the burst size on
	// first use).
	slots   [][]byte
	slotCap int

	rxPackets atomic.Uint64
	txPackets atomic.Uint64
	rxDrops   atomic.Uint64
	txDrops   atomic.Uint64
	rxErrors  atomic.Uint64
	txErrors  atomic.Uint64
	closed    atomic.Bool
	// fatal is the single queue's error slot: first fatal errno wins, and
	// bursts return 0 while it is set (a dead fd should not be hammered with
	// syscalls every poll).  Reopen clears it.
	fatal atomic.Pointer[error]
}

// ethPAll is ETH_P_ALL: receive every protocol the interface sees.
const ethPAll = 0x0003

// packetIgnoreOutgoing is the PACKET_IGNORE_OUTGOING socket option (Linux >=
// 4.20): tell the kernel not to loop our own transmissions back to the
// socket.  Older kernels reject it, and RxBurst filters PACKET_OUTGOING
// frames itself, so setting it is best-effort.
const packetIgnoreOutgoing = 23

// htons converts a short to network byte order (AF_PACKET protocol numbers
// are passed big-endian even through the host-endian syscall ABI).
func htons(v uint16) uint16 {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	return binary.NativeEndian.Uint16(b[:])
}

// NewAFPacketBackend opens a raw packet socket bound to the named interface.
// Requires CAP_NET_RAW (typically root).
func NewAFPacketBackend(iface string) (*AFPacketBackend, error) {
	fd, slotCap, err := dialAFPacket(iface)
	if err != nil {
		return nil, err
	}
	b := &AFPacketBackend{iface: iface, slotCap: slotCap}
	b.fd.Store(int64(fd))
	return b, nil
}

// dialAFPacket is the socket construction sequence, shared by the initial
// open and the supervisor-driven Reopen: socket, bind to the interface,
// nonblocking, plus the best-effort niceties.
func dialAFPacket(iface string) (fd, slotCap int, err error) {
	ifi, err := net.InterfaceByName(iface)
	if err != nil {
		return -1, 0, fmt.Errorf("dpdk: afpacket %s: %w", iface, err)
	}
	fd, err = syscall.Socket(syscall.AF_PACKET, syscall.SOCK_RAW, int(htons(ethPAll)))
	if err != nil {
		return -1, 0, fmt.Errorf("dpdk: afpacket %s: socket: %w (CAP_NET_RAW required)", iface, err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrLinklayer{
		Protocol: htons(ethPAll),
		Ifindex:  ifi.Index,
	}); err != nil {
		syscall.Close(fd)
		return -1, 0, fmt.Errorf("dpdk: afpacket %s: bind: %w", iface, err)
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return -1, 0, fmt.Errorf("dpdk: afpacket %s: nonblock: %w", iface, err)
	}
	// Best-effort niceties: don't deliver our own transmissions (newer
	// kernels), and see frames addressed to anyone (physical NICs; veth
	// taps see everything regardless).
	_ = syscall.SetsockoptInt(fd, syscall.SOL_PACKET, packetIgnoreOutgoing, 1)
	setPromisc(fd, ifi.Index)

	slotCap = ifi.MTU + 18 // L2 header + VLAN tag headroom
	if slotCap < 2048 {
		slotCap = 2048
	}
	return fd, slotCap, nil
}

// packetMreq mirrors the kernel's struct packet_mreq (the syscall package
// has the constants but not the setsockopt wrapper).
type packetMreq struct {
	ifindex int32
	typ     uint16
	alen    uint16
	address [8]byte
}

// setPromisc joins the interface's promiscuous membership so physical NICs
// deliver frames addressed to anyone.  Best-effort: veth taps see everything
// anyway, and a failure only narrows what a physical NIC hands up.
func setPromisc(fd, ifindex int) {
	mreq := packetMreq{ifindex: int32(ifindex), typ: syscall.PACKET_MR_PROMISC}
	_, _, _ = syscall.Syscall6(syscall.SYS_SETSOCKOPT, uintptr(fd),
		uintptr(syscall.SOL_PACKET), uintptr(syscall.PACKET_ADD_MEMBERSHIP),
		uintptr(unsafe.Pointer(&mreq)), unsafe.Sizeof(mreq), 0)
}

// Interface returns the bound interface name.
func (b *AFPacketBackend) Interface() string { return b.iface }

// Queues implements PortBackend: one packet socket is one queue.
func (b *AFPacketBackend) Queues() int { return 1 }

// fatalErrno reports whether an I/O errno means the fd is dead — no amount
// of re-polling will recover it, only a re-dial.
func fatalErrno(err error) bool {
	switch err {
	case syscall.EBADF, syscall.ENETDOWN, syscall.ENXIO, syscall.ENODEV, syscall.EIO:
		return true
	}
	return false
}

// recordFatal parks the first fatal errno in the queue-error slot, unless it
// is the echo of an intentional Close or of an fd Reopen already replaced.
func (b *AFPacketBackend) recordFatal(op string, fd int, errno error) {
	if b.closed.Load() || int64(fd) != b.fd.Load() {
		return
	}
	err := fmt.Errorf("dpdk: afpacket %s: %s: %w", b.iface, op, errno)
	b.fatal.CompareAndSwap(nil, &err)
}

// RxBurst implements PortBackend: drain up to len(out) frames with
// non-blocking recvfrom calls into recycled slot buffers, skipping
// PACKET_OUTGOING frames (our own transmissions looped back by kernels
// without PACKET_IGNORE_OUTGOING).  EINTR retries, EAGAIN means drained;
// any other errno is counted in RxErrors, and a fatal one additionally
// parks in the queue-error slot for the port supervisor.
func (b *AFPacketBackend) RxBurst(q int, out [][]byte) int {
	if b.closed.Load() || b.fatal.Load() != nil {
		return 0
	}
	fd := int(b.fd.Load())
	n := 0
	for n < len(out) {
		if n >= len(b.slots) {
			b.slots = append(b.slots, make([]byte, b.slotCap))
		}
		ln, from, err := syscall.Recvfrom(fd, b.slots[n], syscall.MSG_DONTWAIT)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			if err == syscall.EAGAIN {
				break // drained
			}
			b.rxErrors.Add(1)
			if fatalErrno(err) {
				b.recordFatal("recvfrom", fd, err)
			}
			break
		}
		if ln <= 0 {
			break
		}
		if sll, ok := from.(*syscall.SockaddrLinklayer); ok && sll.Pkttype == syscall.PACKET_OUTGOING {
			continue
		}
		if ln > len(b.slots[n]) {
			ln = len(b.slots[n]) // oversized frame truncated to the slot
		}
		out[n] = b.slots[n][:ln]
		n++
	}
	if n > 0 {
		b.rxPackets.Add(uint64(n))
	}
	return n
}

// TxBurst implements PortBackend: one write per frame, stopping at the
// first frame the kernel will not take right now (EAGAIN/ENOBUFS); the
// worker drops the rest, as it does on a full ring.
func (b *AFPacketBackend) TxBurst(q int, frames [][]byte) int {
	if b.closed.Load() || b.fatal.Load() != nil {
		return 0
	}
	n := 0
	for _, f := range frames {
		if !b.send(f) {
			break
		}
		n++
	}
	if n > 0 {
		b.txPackets.Add(uint64(n))
	}
	return n
}

// send writes one frame, reporting false when the kernel queue is full
// (EAGAIN/ENOBUFS) or the write failed.  Non-
// backpressure failures count in TxErrors; fatal ones park in the
// queue-error slot.
func (b *AFPacketBackend) send(frame []byte) bool {
	fd := int(b.fd.Load())
	for {
		_, err := syscall.Write(fd, frame)
		switch {
		case err == nil:
			return true
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN || err == syscall.ENOBUFS:
			return false
		default:
			b.txErrors.Add(1)
			if fatalErrno(err) {
				b.recordFatal("write", fd, err)
			}
			return false
		}
	}
}

// TransmitSlow implements SlowPathTransmitter by sending directly: the
// kernel serializes writes on one socket, so controller-originated frames
// need no dedicated lane.
func (b *AFPacketBackend) TransmitSlow(frame []byte) bool {
	if b.closed.Load() || b.fatal.Load() != nil {
		return false
	}
	if b.send(frame) {
		b.txPackets.Add(1)
		return true
	}
	b.txDrops.Add(1)
	return false
}

// Stats implements PortBackend.
func (b *AFPacketBackend) Stats() PortStats {
	return PortStats{
		RxPackets: b.rxPackets.Load(),
		TxPackets: b.txPackets.Load(),
		RxDrops:   b.rxDrops.Load(),
		TxDrops:   b.txDrops.Load(),
		RxErrors:  b.rxErrors.Load(),
		TxErrors:  b.txErrors.Load(),
	}
}

// QueueError implements PortBackend: the parked fatal errno, if any.
func (b *AFPacketBackend) QueueError(q int) error {
	if b.closed.Load() {
		return nil
	}
	if p := b.fatal.Load(); p != nil {
		return *p
	}
	return nil
}

// Reopen implements ReopenableBackend: re-dial the socket after a fatal
// error.  The port supervisor calls this while the port is Down (workers
// skip it), so no burst is concurrently using the old fd.
func (b *AFPacketBackend) Reopen() error {
	fd, slotCap, err := dialAFPacket(b.iface)
	if err != nil {
		return err
	}
	old := b.fd.Swap(int64(fd))
	wasClosed := b.closed.Swap(false)
	if !wasClosed && old >= 0 && old != int64(fd) {
		syscall.Close(int(old))
	}
	if slotCap > b.slotCap {
		// The interface MTU grew across the re-dial: retire the old slots so
		// they are re-grown at the new capacity.
		b.slotCap = slotCap
		b.slots = nil
	}
	b.fatal.Store(nil)
	return nil
}

// Close implements PortBackend (idempotent).
func (b *AFPacketBackend) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	return syscall.Close(int(b.fd.Load()))
}

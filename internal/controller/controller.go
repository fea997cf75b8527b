// Package controller provides the control-plane pieces of the evaluation: a
// switch-side OpenFlow agent that applies FlowMods arriving over a framed
// control channel to any flow programmer (the ESWITCH datapath or the OVS
// baseline), and a controller client that installs pipelines over that
// channel and reacts to packet-in events — the two installation paths ("CLI"
// = direct programmer calls, "ctrl" = through the channel) compared in
// Fig. 17, and the reactive admission control of the gateway use case (§4.1).
package controller

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
)

// FlowProgrammer is the switch-side flow update interface; both the ESWITCH
// datapath and the OVS baseline satisfy it.
type FlowProgrammer interface {
	AddFlow(table openflow.TableID, e *openflow.FlowEntry) error
	DeleteFlow(table openflow.TableID, match *openflow.Match, priority int) (int, error)
}

// Agent is the switch-side endpoint of the OpenFlow channel.
type Agent struct {
	programmer FlowProgrammer

	// PacketOutHandler, when set, executes every PacketOut received on the
	// channel (the slow-path service's HandlePacketOut).  Execution errors
	// are not fatal: a late PacketOut referencing an expired buffer-id must
	// not kill a long-lived channel.
	PacketOutHandler func(ofp.PacketOut) error

	flowMods    atomic.Uint64
	flowModErrs atomic.Uint64
	packets     atomic.Uint64
	// lastEchoReply is when the channel last proved itself alive (an
	// EchoReply arrived), UnixNano; the supervisor's liveness check reads
	// it.
	lastEchoReply atomic.Int64
}

// NewAgent returns an agent applying flow mods to the programmer.
func NewAgent(p FlowProgrammer) *Agent { return &Agent{programmer: p} }

// FlowMods returns the number of flow modifications applied.
func (a *Agent) FlowMods() uint64 { return a.flowMods.Load() }

// FlowModErrors returns how many FlowMods failed to apply (each answered
// with an OFPT_ERROR on the channel, not a channel teardown).
func (a *Agent) FlowModErrors() uint64 { return a.flowModErrs.Load() }

// LastEchoReply returns when the last EchoReply arrived (zero time when none
// has).  The supervisor's liveness check compares it against the echo
// deadline.
func (a *Agent) LastEchoReply() time.Time {
	ns := a.lastEchoReply.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// markEchoReply arms/refreshes the liveness clock; the supervisor calls it
// at session start so a silent controller times out relative to the
// session's beginning, not the Unix epoch.
func (a *Agent) markEchoReply(t time.Time) { a.lastEchoReply.Store(t.UnixNano()) }

// PacketOuts returns the number of packet-out messages received.
func (a *Agent) PacketOuts() uint64 { return a.packets.Load() }

// Serve processes messages from the connection until it is closed or an error
// occurs.  io.EOF (orderly shutdown) is reported as nil.
func (a *Agent) Serve(conn io.ReadWriter) error {
	// The switch opens with a Hello.
	if err := ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypeHello, Xid: 1}); err != nil {
		return err
	}
	for {
		msg, err := ofp.ReadMessage(conn)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch msg.Type {
		case ofp.TypeHello:
			// Nothing to do.
		case ofp.TypeEchoRequest:
			if err := ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypeEchoReply, Xid: msg.Xid, Body: msg.Body}); err != nil {
				return err
			}
		case ofp.TypeEchoReply:
			// The reply to an EchoRequest the supervisor sent: refresh the
			// liveness clock its echo deadline is measured against.
			a.markEchoReply(time.Now())
		case ofp.TypeBarrierRequest:
			if err := ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypeBarrierReply, Xid: msg.Xid}); err != nil {
				return err
			}
		case ofp.TypeFlowMod:
			// A FlowMod the switch cannot honor is answered with an
			// OFPT_ERROR, never a channel teardown: the framing layer
			// guarantees message boundaries, so neither a malformed body
			// nor a rejected flow desynchronizes the stream, and killing a
			// long-lived reactive channel over one bad flow would turn a
			// single controller bug into a forwarding outage.
			fm, err := ofp.DecodeFlowMod(msg.Body)
			if err != nil {
				a.flowModErrs.Add(1)
				if err := a.sendError(conn, msg, ofp.ErrTypeBadRequest, ofp.BadRequestBadLen); err != nil {
					return err
				}
				continue
			}
			if err := a.applyFlowMod(fm); err != nil {
				a.flowModErrs.Add(1)
				code := ofp.FlowModFailedUnknown
				var tf interface{ TableFull() bool }
				if errors.As(err, &tf) && tf.TableFull() {
					code = ofp.FlowModFailedTableFull
				}
				if err := a.sendError(conn, msg, ofp.ErrTypeFlowModFailed, code); err != nil {
					return err
				}
			}
		case ofp.TypePacketOut:
			po, err := ofp.DecodePacketOut(msg.Body)
			if err != nil {
				return err
			}
			a.packets.Add(1)
			if a.PacketOutHandler != nil {
				// Not fatal: see PacketOutHandler.
				_ = a.PacketOutHandler(po)
			}
		default:
			// Ignore unknown message types, as real agents do.
		}
	}
}

// sendError answers a failed request with an OFPT_ERROR carrying the
// request's xid and echoing its body, so the controller can tell exactly
// which flow was rejected.
func (a *Agent) sendError(conn io.Writer, req ofp.Message, errType, code uint16) error {
	body := ofp.EncodeError(ofp.ErrorMsg{Type: errType, Code: code, Data: req.Body})
	return ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypeError, Xid: req.Xid, Body: body})
}

func (a *Agent) applyFlowMod(fm ofp.FlowMod) error {
	a.flowMods.Add(1)
	switch fm.Command {
	case ofp.FlowModAdd:
		entry := openflow.NewEntry(int(fm.Priority), fm.Match, fm.Instructions)
		entry.IdleTimeout = fm.IdleTimeout
		entry.HardTimeout = fm.HardTimeout
		return a.programmer.AddFlow(fm.TableID, entry)
	case ofp.FlowModDelete:
		_, err := a.programmer.DeleteFlow(fm.TableID, fm.Match, int(fm.Priority))
		return err
	default:
		return fmt.Errorf("controller: unsupported flow-mod command %d", fm.Command)
	}
}

// SendPacketIn punts a packet to the controller over the connection (the
// switch-to-controller direction of the reactive path).
func (a *Agent) SendPacketIn(conn io.Writer, pi ofp.PacketIn) error {
	return ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypePacketIn, Xid: 0, Body: ofp.EncodePacketIn(pi)})
}

// SendFlowRemoved announces a removed flow entry to the controller over the
// connection (how the lifecycle sweeper's expirations and evictions reach the
// controller).  Writers sharing the channel must pass the SyncWriter side of
// SharedChannel, as for SendPacketIn.
func (a *Agent) SendFlowRemoved(conn io.Writer, fr ofp.FlowRemoved) error {
	return ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypeFlowRemoved, Xid: 0, Body: ofp.EncodeFlowRemoved(fr)})
}

// SendPortStatus announces a port link-state transition to the controller
// over the connection (how the port supervisor's Up/Down/Flapping events
// reach the controller).  Writers sharing the channel must pass the
// SyncWriter side of SharedChannel, as for SendPacketIn.
func (a *Agent) SendPortStatus(conn io.Writer, ps ofp.PortStatus) error {
	return ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypePortStatus, Xid: 0, Body: ofp.EncodePortStatus(ps)})
}

// SyncWriter serializes whole-buffer writes from multiple goroutines onto
// one control channel.  The agent's replies (EchoReply, BarrierReply) and
// the slow-path service's PacketIns share a connection; ofp.WriteMessage
// issues exactly one Write per framed message, so a write-level mutex keeps
// message framing atomic on the wire.
type SyncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// Write implements io.Writer under the mutex.
func (sw *SyncWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(p)
}

// channelRW pairs a reader with a (typically synchronized) writer.
type channelRW struct {
	io.Reader
	io.Writer
}

// SharedChannel splits a control connection into its read side and a
// synchronized write side: Serve reads from the connection directly while
// every writer — the agent's own replies and any slow-path service — goes
// through the returned SyncWriter.
func SharedChannel(conn io.ReadWriter) (io.ReadWriter, *SyncWriter) {
	sw := &SyncWriter{w: conn}
	return channelRW{Reader: conn, Writer: sw}, sw
}

// Controller is the controller-side endpoint.
type Controller struct {
	conn io.ReadWriter
	mu   sync.Mutex
	xid  uint32

	// PacketInHandler, when set, is invoked for every PacketIn read by
	// HandleOne/Run.
	PacketInHandler func(ofp.PacketIn)
	// ErrorHandler, when set, is invoked for every OFPT_ERROR the switch
	// sends (most importantly FLOW_MOD_FAILED/TABLE_FULL, the capacity
	// guardrail) read by Run or Barrier.
	ErrorHandler func(ofp.ErrorMsg)
	// FlowRemovedHandler, when set, is invoked for every FlowRemoved the
	// switch sends (idle/hard timeout expirations and soft-limit evictions
	// from the lifecycle sweeper, plus announced deletes) read by Run or
	// Barrier.
	FlowRemovedHandler func(ofp.FlowRemoved)
	// PortStatusHandler, when set, is invoked for every PortStatus the
	// switch sends (port supervisor link-state transitions: Down on fatal
	// backend errors or worker stalls, Up/Flapping on recovery) read by
	// Run or Barrier.
	PortStatusHandler func(ofp.PortStatus)
}

// NewController wraps an established control channel.
func NewController(conn io.ReadWriter) *Controller { return &Controller{conn: conn, xid: 100} }

// Dial connects to a switch agent listening at addr.
func Dial(addr string) (*Controller, net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return NewController(conn), conn, nil
}

func (c *Controller) nextXid() uint32 {
	c.xid++
	return c.xid
}

// Hello performs the version handshake (sends Hello; the agent's Hello is
// consumed by the read loop or Barrier).
func (c *Controller) Hello() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ofp.WriteMessage(c.conn, ofp.Message{Type: ofp.TypeHello, Xid: c.nextXid()})
}

// InstallFlow sends a FlowMod ADD for the entry.
func (c *Controller) InstallFlow(table openflow.TableID, priority int, match *openflow.Match, ins openflow.Instructions) error {
	fm := ofp.FlowMod{
		Command:      ofp.FlowModAdd,
		TableID:      table,
		Priority:     int32(priority),
		Match:        match,
		Instructions: ins,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ofp.WriteMessage(c.conn, ofp.Message{Type: ofp.TypeFlowMod, Xid: c.nextXid(), Body: ofp.EncodeFlowMod(fm)})
}

// InstallFlowLifetime is InstallFlow with idle/hard timeouts (seconds; zero
// means never expire) carried on the FlowMod — the reactive controller's way
// to install self-expiring flows the lifecycle sweeper reaps.
func (c *Controller) InstallFlowLifetime(table openflow.TableID, priority int, match *openflow.Match, ins openflow.Instructions, idle, hard uint16) error {
	fm := ofp.FlowMod{
		Command:      ofp.FlowModAdd,
		TableID:      table,
		Priority:     int32(priority),
		Match:        match,
		Instructions: ins,
		IdleTimeout:  idle,
		HardTimeout:  hard,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ofp.WriteMessage(c.conn, ofp.Message{Type: ofp.TypeFlowMod, Xid: c.nextXid(), Body: ofp.EncodeFlowMod(fm)})
}

// deleteFlow sends a FlowMod DELETE for the match.
func (c *Controller) deleteFlow(table openflow.TableID, priority int, match *openflow.Match) error {
	fm := ofp.FlowMod{Command: ofp.FlowModDelete, TableID: table, Priority: int32(priority), Match: match}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ofp.WriteMessage(c.conn, ofp.Message{Type: ofp.TypeFlowMod, Xid: c.nextXid(), Body: ofp.EncodeFlowMod(fm)})
}

// InstallPipeline pushes every entry of the pipeline through the channel, the
// way the Ryu/OpenDaylight installation path of Fig. 17 does, and ends with a
// barrier so the caller knows the switch has applied everything.
func (c *Controller) InstallPipeline(pl *openflow.Pipeline) error {
	for _, t := range pl.Tables() {
		for _, e := range t.Entries() {
			if err := c.InstallFlow(t.ID, e.Priority, e.Match, e.Instructions); err != nil {
				return err
			}
		}
	}
	return c.Barrier()
}

// Barrier sends a BarrierRequest and waits for the matching reply (any
// PacketIn messages read while waiting are dispatched to PacketInHandler).
func (c *Controller) Barrier() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	xid := c.nextXid()
	if err := ofp.WriteMessage(c.conn, ofp.Message{Type: ofp.TypeBarrierRequest, Xid: xid}); err != nil {
		return err
	}
	for {
		msg, err := ofp.ReadMessage(c.conn)
		if err != nil {
			return err
		}
		switch msg.Type {
		case ofp.TypeBarrierReply:
			if msg.Xid == xid {
				return nil
			}
		case ofp.TypePacketIn:
			if c.PacketInHandler != nil {
				if pi, err := ofp.DecodePacketIn(msg.Body); err == nil {
					c.PacketInHandler(pi)
				}
			}
		case ofp.TypeEchoRequest:
			// The supervised switch probes channel liveness; answer even
			// mid-barrier (the write is safe: Barrier holds the mutex).
			if err := ofp.WriteMessage(c.conn, ofp.Message{Type: ofp.TypeEchoReply, Xid: msg.Xid, Body: msg.Body}); err != nil {
				return err
			}
		case ofp.TypeError:
			if c.ErrorHandler != nil {
				if em, err := ofp.DecodeError(msg.Body); err == nil {
					c.ErrorHandler(em)
				}
			}
		case ofp.TypeFlowRemoved:
			if c.FlowRemovedHandler != nil {
				if fr, err := ofp.DecodeFlowRemoved(msg.Body); err == nil {
					c.FlowRemovedHandler(fr)
				}
			}
		case ofp.TypePortStatus:
			if c.PortStatusHandler != nil {
				if ps, err := ofp.DecodePortStatus(msg.Body); err == nil {
					c.PortStatusHandler(ps)
				}
			}
		case ofp.TypeHello, ofp.TypeEchoReply:
			// Fine, keep waiting.
		}
	}
}

// Run reads messages until the channel closes, dispatching PacketIn events to
// PacketInHandler.  Use either Run (reactive controllers) or Barrier
// (synchronous installation) on a given channel, not both concurrently.
func (c *Controller) Run() error {
	for {
		msg, err := ofp.ReadMessage(c.conn)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch msg.Type {
		case ofp.TypePacketIn:
			if c.PacketInHandler != nil {
				if pi, err := ofp.DecodePacketIn(msg.Body); err == nil {
					c.PacketInHandler(pi)
				}
			}
		case ofp.TypeEchoRequest:
			// Liveness probe from a supervised switch: reply under the
			// write mutex (Run itself holds no lock while reading).
			c.mu.Lock()
			err := ofp.WriteMessage(c.conn, ofp.Message{Type: ofp.TypeEchoReply, Xid: msg.Xid, Body: msg.Body})
			c.mu.Unlock()
			if err != nil {
				return err
			}
		case ofp.TypeError:
			if c.ErrorHandler != nil {
				if em, err := ofp.DecodeError(msg.Body); err == nil {
					c.ErrorHandler(em)
				}
			}
		case ofp.TypeFlowRemoved:
			if c.FlowRemovedHandler != nil {
				if fr, err := ofp.DecodeFlowRemoved(msg.Body); err == nil {
					c.FlowRemovedHandler(fr)
				}
			}
		case ofp.TypePortStatus:
			if c.PortStatusHandler != nil {
				if ps, err := ofp.DecodePortStatus(msg.Body); err == nil {
					c.PortStatusHandler(ps)
				}
			}
		}
	}
}

// SendPacketOut injects a packet through the switch.
func (c *Controller) SendPacketOut(po ofp.PacketOut) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ofp.WriteMessage(c.conn, ofp.Message{Type: ofp.TypePacketOut, Xid: c.nextXid(), Body: ofp.EncodePacketOut(po)})
}

// InstallDirect is the "CLI" installation path of Fig. 17: it programs the
// switch through direct API calls, bypassing the control channel.
func InstallDirect(p FlowProgrammer, pl *openflow.Pipeline) error {
	for _, t := range pl.Tables() {
		for _, e := range t.Entries() {
			if err := p.AddFlow(t.ID, e.Clone()); err != nil {
				return err
			}
		}
	}
	return nil
}

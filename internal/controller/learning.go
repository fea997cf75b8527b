package controller

import (
	"sync"
	"sync/atomic"

	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// LearningSwitch is the classic reactive L2 learning controller — the
// repository's first closed switch↔controller loop (BOFUSS-style): every
// table-miss PacketIn teaches it the (source MAC → in-port) binding, and as
// soon as a punted packet's destination is known it installs an exact-match
// FlowMod so the flow's remaining packets stay on the fast path, replaying
// the punted packet itself with a PacketOut (to the learned port, or FLOOD
// while the destination is still unknown).  Convergence is observable from
// the switch side: the punt rate decays to zero once every station has been
// learned, and the microflow verdict cache takes over via the datapath's
// generation counter.
//
// Learned flows match the (source, destination) pair, not the destination
// alone: a destination-only flow installed on one sender's punt would carry
// every other sender's frames to that station too, and a sender whose only
// traffic goes there would never punt, never be learned, and leave the
// stations talking to it punting forever.
type LearningSwitch struct {
	ctrl *Controller
	// Table and Priority select where learned flows land (defaults: table 0,
	// priority 100).
	Table    openflow.TableID
	Priority int

	mu sync.Mutex
	// macs is what has been learned; installed is which (source,
	// destination) pairs already have a FlowMod, so a burst of punts for one
	// pair does not re-install the same flow per punt.
	macs      map[uint64]uint32
	installed map[macPair]bool

	packetIns atomic.Uint64
	flowMods  atomic.Uint64
	flowErrs  atomic.Uint64
	floods    atomic.Uint64
	lastErr   atomic.Value // error
}

// macPair is a learned flow's (source, destination) MAC pair.
type macPair struct{ src, dst uint64 }

// NewLearningSwitch attaches a learning switch to the controller endpoint
// (its PacketInHandler and ErrorHandler are taken over).
func NewLearningSwitch(c *Controller) *LearningSwitch {
	ls := &LearningSwitch{
		Priority:  100,
		macs:      make(map[uint64]uint32),
		installed: make(map[macPair]bool),
	}
	ls.Attach(c)
	return ls
}

// Attach rebinds the learning switch to a (new) controller endpoint — the
// learning-state resync half of a control-channel reconnect.  Learned MAC
// bindings survive (stations did not move because the channel flapped), but
// the installed-flow ledger is cleared: the switch may or may not still hold
// the flows installed over the previous connection, so the conservative
// resync forgets the claim and lets the evidence — a punt for that
// destination — trigger a harmless re-install.  Call it with the old
// channel's Run already finished (or never started).
func (ls *LearningSwitch) Attach(c *Controller) {
	ls.mu.Lock()
	ls.ctrl = c
	if ls.macs == nil { // zero-value LearningSwitch attaching for the first time
		ls.macs = make(map[uint64]uint32)
	}
	ls.installed = make(map[macPair]bool)
	ls.mu.Unlock()
	c.PacketInHandler = ls.HandlePacketIn
	c.ErrorHandler = ls.HandleError
}

// Run serves the control channel until it closes (Controller.Run).
func (ls *LearningSwitch) Run() error { return ls.controller().Run() }

// controller returns the currently attached endpoint.
func (ls *LearningSwitch) controller() *Controller {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.ctrl
}

// PacketIns returns how many PacketIns were handled.
func (ls *LearningSwitch) PacketIns() uint64 { return ls.packetIns.Load() }

// FlowMods returns how many flows the controller installed.
func (ls *LearningSwitch) FlowMods() uint64 { return ls.flowMods.Load() }

// FlowModErrors returns how many installed flows the switch rejected with an
// OFPT_ERROR (e.g. TABLE_FULL).
func (ls *LearningSwitch) FlowModErrors() uint64 { return ls.flowErrs.Load() }

// Floods returns how many punted packets were flooded (destination still
// unknown at punt time).
func (ls *LearningSwitch) Floods() uint64 { return ls.floods.Load() }

// Learned returns the number of learned stations.
func (ls *LearningSwitch) Learned() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.macs)
}

// Err returns the last channel error the handler hit (nil while healthy).
func (ls *LearningSwitch) Err() error {
	if e, ok := ls.lastErr.Load().(error); ok {
		return e
	}
	return nil
}

// HandlePacketIn is the reactive loop body: learn the source, then either
// install + forward (known destination) or flood (unknown).
func (ls *LearningSwitch) HandlePacketIn(pi ofp.PacketIn) {
	ls.packetIns.Add(1)
	p := pkt.Packet{Data: pi.Data, InPort: pi.InPort}
	if !pkt.ParseL2(&p) {
		return // unparsable runt: nothing to learn, nothing to forward
	}
	src, dst := p.Headers.EthSrc, p.Headers.EthDst

	ls.mu.Lock()
	// Learn the source binding (unicast sources only — a broadcast source
	// address is a malformed frame, not a station).
	if src[0]&1 == 0 {
		ls.macs[src.Uint64()] = pi.InPort
	}
	outPort, known := ls.macs[dst.Uint64()]
	pair := macPair{src.Uint64(), dst.Uint64()}
	install := known && dst[0]&1 == 0 && !ls.installed[pair]
	if install {
		ls.installed[pair] = true
	}
	ctrl := ls.ctrl
	ls.mu.Unlock()

	if install {
		match := openflow.NewMatch().Set(openflow.FieldEthSrc, pair.src).Set(openflow.FieldEthDst, pair.dst)
		if err := ctrl.InstallFlow(ls.Table, ls.Priority, match, openflow.Apply(openflow.Output(outPort))); err != nil {
			ls.lastErr.Store(err)
			return
		}
		ls.flowMods.Add(1)
	}

	// Replay the punted packet itself: to the learned port when known,
	// flooded otherwise.  The data rides in the PacketOut even when the
	// switch buffered the frame — correctness over the few saved bytes.
	action := openflow.Flood()
	if known {
		action = openflow.Output(outPort)
	} else {
		ls.floods.Add(1)
	}
	po := ofp.PacketOut{
		BufferID: pi.BufferID,
		InPort:   pi.InPort,
		Actions:  openflow.ActionList{action},
		Data:     pi.Data,
	}
	if err := ctrl.SendPacketOut(po); err != nil {
		ls.lastErr.Store(err)
	}
}

// HandleError digests an OFPT_ERROR from the switch.  For a failed FlowMod
// the error echoes the rejected request, so the learner un-marks that
// pair in its installed-flow ledger: the flow is NOT on the switch,
// and a later punt for it must be allowed to retry the install (e.g. after
// the controller or an operator frees table capacity) instead of being
// filtered by the ledger forever.
func (ls *LearningSwitch) HandleError(em ofp.ErrorMsg) {
	ls.flowErrs.Add(1)
	if em.Type != ofp.ErrTypeFlowModFailed {
		return
	}
	fm, err := ofp.DecodeFlowMod(em.Data)
	if err != nil || fm.Match == nil {
		return
	}
	src, _, okSrc := fm.Match.Get(openflow.FieldEthSrc)
	dst, _, okDst := fm.Match.Get(openflow.FieldEthDst)
	if okSrc && okDst {
		ls.mu.Lock()
		delete(ls.installed, macPair{src, dst})
		ls.mu.Unlock()
	}
}

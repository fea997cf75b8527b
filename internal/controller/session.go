package controller

import (
	"fmt"
	"sync"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/ofp"
	"eswitch/internal/slowpath"
)

// Session is the switch side of the supervised control channel, written once
// for eswitchd -listen and the chaos harness.  OnUp and OnDown are a
// Supervisor's hooks, PortStatus a port supervisor's OnTransition and
// FlowRemoved a lifecycle sweeper's OnRemoved.  Announcements go to the
// current session and are dropped while there is none.
type Session struct {
	// Switch's fail mode follows the session; it executes PacketOuts.
	Switch *dpdk.Switch
	// Agent serves the channel; OnUp hands it the service's PacketOuts.
	Agent *Agent
	// Slowpath is the template each session's slow-path service is built
	// from (OnUp fills Send and Executor); nil Rings means proactive only.
	Slowpath slowpath.Config
	// FailMode is the degraded mode OnDown enters.
	FailMode dpdk.FailMode

	mu  sync.Mutex
	w   *SyncWriter       // the live session's writer, nil between sessions
	svc *slowpath.Service // the latest session's service
}

// OnUp starts a session writing to w: it arms the slow path when Rings are
// set and clears the fail mode either way.  The returned teardown ends the
// session's announcements and stops its service.
func (s *Session) OnUp(w *SyncWriter) func() {
	var running sync.WaitGroup
	stop := make(chan struct{})
	s.mu.Lock()
	if s.Slowpath.Rings != nil {
		cfg := s.Slowpath
		cfg.Executor = s.Switch
		cfg.Send = func(pi ofp.PacketIn) error { return s.Agent.SendPacketIn(w, pi) }
		svc, _ := slowpath.NewService(cfg) // it fails only without Send, set above
		s.svc = svc
		s.Agent.PacketOutHandler = svc.HandlePacketOut
		running.Add(1)
		go func() { defer running.Done(); svc.Run(stop) }()
	}
	s.w = w
	s.mu.Unlock()
	s.Switch.SetFailMode(dpdk.FailNormal)
	return func() {
		s.mu.Lock()
		s.w = nil
		s.mu.Unlock()
		// The rings are single-consumer: the next session's service must
		// not start before this one's final flush returns.
		close(stop)
		running.Wait()
	}
}

// OnDown enters the configured fail mode when a session dies.
func (s *Session) OnDown(error) { s.Switch.SetFailMode(s.FailMode) }

// Service returns the latest session's slow-path service (nil before the
// first session, and always when proactive).
func (s *Session) Service() *slowpath.Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svc
}

func (s *Session) writer() *SyncWriter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w
}

// PortStatus announces a link transition as OFPT_PORT_STATUS; Desc is the
// reason, followed by the backend error behind a Down.  A failed write, here
// and in FlowRemoved, belongs to a dying session its supervisor tears down.
func (s *Session) PortStatus(ev dpdk.PortLinkEvent) {
	var state uint32
	switch ev.State {
	case dpdk.LinkDown:
		state = ofp.PortStateLinkDown
	case dpdk.LinkFlapping:
		state = ofp.PortStateFlapping
	}
	desc := ev.Reason
	if ev.Err != nil {
		desc = fmt.Sprintf("%s: %v", ev.Reason, ev.Err)
	}
	if w := s.writer(); w != nil {
		_ = s.Agent.SendPortStatus(w, ofp.PortStatus{
			Reason: ofp.PortStatusModify, PortNo: ev.Port, State: state, Desc: desc,
		})
	}
}

// FlowRemoved announces a flow the sweeper removed as OFPT_FLOW_REMOVED,
// carrying the entry's counters.
func (s *Session) FlowRemoved(rf core.RemovedFlow) {
	if w := s.writer(); w != nil {
		_ = s.Agent.SendFlowRemoved(w, ofp.FlowRemoved{
			Reason:      rf.Reason, // core's Removed* values are the wire reasons
			TableID:     rf.Table,
			Priority:    int32(rf.Priority),
			IdleTimeout: rf.IdleTimeout,
			HardTimeout: rf.HardTimeout,
			DurationSec: uint32(rf.Duration / time.Second),
			Packets:     rf.Packets,
			Bytes:       rf.Bytes,
			Match:       rf.Match,
		})
	}
}

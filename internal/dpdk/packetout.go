package dpdk

import (
	"fmt"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// This file is the switch side of PacketOut execution: the slow-path service
// hands it a controller-supplied frame plus action list, and the switch
// either transmits the frame directly (physical ports, flood) or re-injects
// it through the datapath (output:TABLE) and forwards the resulting verdict.
// All transmission goes through the ports' dedicated slow-path TX rings
// (Port.TransmitSlow), so the worker-owned TX queues stay single-producer.

// Reinjected counts the frames output:TABLE PacketOuts re-injected through
// the datapath's Process.  No worker received them, so they are not in
// WorkerStats.Processed; on an unmetered, cache-armed datapath each one
// still probes a pinned worker's verdict cache, and the cache identity
// (core.FlowCacheStats.CheckInvariants) reads Processed plus this count.
func (s *Switch) Reinjected() uint64 { return s.reinjected.Load() }

// ReinjectPunts counts packets that were re-injected through the pipeline by
// an output:TABLE PacketOut and punted again.  They are not re-delivered —
// pushing from the service would break the worker rings' single-producer
// contract, and a controller that packet-outs into a table that punts back
// is a loop the slow path must cut, exactly like OVS's packet-in throttling.
func (s *Switch) ReinjectPunts() uint64 { return s.reinjectPunts.Load() }

// PacketOut executes a controller-originated action list against the frame
// as if it had been received on inPort (0 = no ingress port; flood then
// covers every port).  It implements slowpath.Executor.  Supported actions
// are Output (physical ports, FLOOD, TABLE — the pipeline re-injection) and
// Drop; header-rewrite actions in a packet-out are rejected rather than
// silently skipped, since this repository's frames would not carry them.
func (s *Switch) PacketOut(inPort uint32, frame []byte, actions openflow.ActionList) error {
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionOutput:
			switch a.Port {
			case openflow.PortTable:
				if err := s.packetOutTable(inPort, frame); err != nil {
					return err
				}
			case openflow.PortFlood:
				for _, port := range s.ports {
					if port.ID != inPort {
						port.TransmitSlow(frame)
					}
				}
			case openflow.PortController:
				// A controller telling the switch to punt back to the
				// controller is a no-op here.
			default:
				port, err := s.Port(a.Port)
				if err != nil {
					return fmt.Errorf("dpdk: packet-out to unknown port %d", a.Port)
				}
				port.TransmitSlow(frame)
			}
		case openflow.ActionDrop:
			return nil
		default:
			return fmt.Errorf("dpdk: unsupported packet-out action %s", a)
		}
	}
	return nil
}

// packetOutTable classifies the frame through the datapath (the facade-safe
// Process path, so it is race-free against concurrent flow-mods and
// forwarding workers) and transmits the verdict's output ports.
func (s *Switch) packetOutTable(inPort uint32, frame []byte) error {
	var p pkt.Packet
	var v openflow.Verdict
	p.Data = frame
	p.InPort = inPort
	s.dp.Process(&p, &v)
	s.reinjected.Add(1)
	for _, out := range v.OutPorts {
		if port, err := s.Port(out); err == nil {
			port.TransmitSlow(frame)
		}
	}
	if v.ToController {
		s.reinjectPunts.Add(1)
	}
	return nil
}

package slowpath

// PacketOuts returns how many PacketOut messages were executed.
func (s *Service) PacketOuts() uint64 { return s.packetOuts.Load() }

// RingDelivered returns the per-ring delivery counts (indexed like
// Config.Rings): the fairness ledger of the round-robin drain.
func (s *Service) RingDelivered() []uint64 {
	out := make([]uint64, len(s.ringDelivered))
	for i := range s.ringDelivered {
		out[i] = s.ringDelivered[i].Load()
	}
	return out
}

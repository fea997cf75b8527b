package cpumodel

// Stats summarizes the hierarchy's hit/miss counters.
type Stats struct {
	Accesses  uint64
	L1Misses  uint64
	L2Misses  uint64
	LLCMisses uint64 // misses in the last level (L3, or L2 when no L3)
}

// Stats returns the accumulated counters.
func (h *Hierarchy) Stats() Stats {
	var s Stats
	if h.l1 != nil {
		s.Accesses = h.l1.accesses
		s.L1Misses = h.l1.misses
	}
	if h.l2 != nil {
		s.L2Misses = h.l2.misses
		s.LLCMisses = h.l2.misses
	}
	if h.l3 != nil {
		s.LLCMisses = h.l3.misses
	}
	return s
}

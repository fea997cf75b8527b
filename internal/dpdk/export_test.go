package dpdk

// Capacity returns the usable capacity of the ring.
func (r *Ring) Capacity() int { return len(r.buf) - 1 }

// Events returns the link-state transitions so far, in order and at most
// maxRecorded of them.
func (ps *PortSupervisor) Events() []PortLinkEvent {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]PortLinkEvent(nil), ps.events...)
}

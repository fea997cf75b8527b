package dpdk

// Capacity returns the usable capacity of the ring.
func (r *Ring) Capacity() int { return len(r.buf) - 1 }

// Events returns every link-state transition so far, in order.
func (ps *PortSupervisor) Events() []PortLinkEvent {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]PortLinkEvent(nil), ps.events...)
}

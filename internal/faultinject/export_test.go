package faultinject

// Clear removes a fault point's rule (the point stops firing).
func (in *Injector) Clear(point string) {
	in.mu.Lock()
	delete(in.rules, point)
	in.mu.Unlock()
}

// Killed reports whether the backend is currently killed.
func (b *FaultBackend) Killed() bool { return b.killed.Load() != nil }

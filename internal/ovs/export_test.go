package ovs

// CacheSizes returns the current microflow and megaflow cache sizes.
func (s *Switch) CacheSizes() (micro, mega int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.micro), s.mega.Len()
}

package dash

// VirtualNow returns the shaper's current position on the trace in virtual
// seconds: 0 before the first write, then the clock time since it × scale.
func (s *Shaper) VirtualNow() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.start.IsZero() {
		return 0
	}
	return s.clock.Now().Sub(s.start).Seconds() * s.scale
}

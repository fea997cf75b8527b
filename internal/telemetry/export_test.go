package telemetry

import "fmt"

// SplitFramed re-frames a fileSink byte stream into messages.
func SplitFramed(b []byte) ([][]byte, error) {
	var msgs [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("telemetry: truncated frame prefix")
		}
		n := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
		if n < 0 || len(b) < 4+n {
			return nil, fmt.Errorf("telemetry: truncated frame (%d of %d bytes)", len(b)-4, n)
		}
		msgs = append(msgs, b[4:4+n])
		b = b[4+n:]
	}
	return msgs, nil
}

// Messages returns the emitted messages.
func (s *MemorySink) Messages() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(s.msgs))
	copy(out, s.msgs)
	return out
}

// Package backoff is the repository's one deterministic retry-delay
// generator: capped exponential backoff with seeded multiplicative jitter.
//
// Two supervision planes share it — the controller-channel supervisor
// (internal/controller) redialing a dead OpenFlow session, and the port
// supervisor (internal/dpdk) reopening a dead packet I/O backend.  Both
// record every delay they sleep, and their chaos tests compare the recorded
// sequence against Schedule, the pure oracle that replays the same config.
// Keeping the generator in one package is what makes that oracle honest:
// there is exactly one formula, min(Max, Min·2^attempt) scaled by
// 1+U[0,JitterFrac) from a seeded math/rand stream, and everyone uses it.
package backoff

import (
	"math/rand"
	"time"
)

// Config parameterizes a backoff sequence.  The zero value is not useful;
// callers apply their own defaults before constructing a Source (the two
// supervisors deliberately share defaults: 50ms..5s, jitter 0.25).
type Config struct {
	// Min and Max bound the capped exponential base delay: attempt i's base
	// is min(Max, Min·2^i).
	Min time.Duration
	Max time.Duration
	// JitterFrac is the multiplicative jitter spread: each base delay is
	// scaled by 1+U[0,JitterFrac) drawn from the seeded generator.
	JitterFrac float64
	// Seed makes the jitter stream deterministic, so Schedule can reproduce
	// every delay a Source will ever hand out.
	Seed int64
}

// Source is a stateful delay generator: Next returns the current attempt's
// delay and advances the attempt counter; Reset rewinds the attempt counter
// to zero (a success happened) while the jitter stream keeps advancing —
// a flap after a healthy period restarts the schedule at Min but never
// replays jitter values.
type Source struct {
	cfg     Config
	rng     *rand.Rand
	attempt int
}

// NewSource returns a generator at attempt zero.
func NewSource(cfg Config) *Source {
	return &Source{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next returns the delay for the current attempt and advances to the next.
func (s *Source) Next() time.Duration {
	d := jitter(base(s.cfg, s.attempt), s.cfg.JitterFrac, s.rng)
	s.attempt++
	return d
}

// Reset rewinds the attempt counter after a success; the jitter stream is
// not rewound.
func (s *Source) Reset() { s.attempt = 0 }

// Schedule is the oracle: the first n delays a fresh Source with this
// config produces over consecutive failures (no intervening Reset).
func Schedule(cfg Config, n int) []time.Duration {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = jitter(base(cfg, i), cfg.JitterFrac, rng)
	}
	return out
}

func base(cfg Config, attempt int) time.Duration {
	d := cfg.Min
	for i := 0; i < attempt && d < cfg.Max; i++ {
		d *= 2
	}
	if d > cfg.Max {
		d = cfg.Max
	}
	return d
}

func jitter(d time.Duration, frac float64, rng *rand.Rand) time.Duration {
	return time.Duration(float64(d) * (1 + frac*rng.Float64()))
}

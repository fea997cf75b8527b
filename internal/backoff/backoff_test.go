package backoff

import (
	"testing"
	"time"
)

func testConfig() Config {
	return Config{Min: 50 * time.Millisecond, Max: 5 * time.Second, JitterFrac: 0.25, Seed: 42}
}

// The schedule doubles from Min, saturates at Max (before jitter), and every
// delay carries jitter in [1, 1+JitterFrac) of its base.
func TestScheduleShape(t *testing.T) {
	cfg := testConfig()
	sched := Schedule(cfg, 12)
	base := cfg.Min
	for i, d := range sched {
		lo, hi := base, time.Duration(float64(base)*(1+cfg.JitterFrac))
		if d < lo || d >= hi {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, d, lo, hi)
		}
		if base < cfg.Max {
			base *= 2
			if base > cfg.Max {
				base = cfg.Max
			}
		}
	}
	if got := sched[len(sched)-1]; got < cfg.Max {
		t.Fatalf("tail delay %v below saturated max %v", got, cfg.Max)
	}
}

// A Source replays Schedule exactly, and is deterministic across instances.
func TestSourceMatchesSchedule(t *testing.T) {
	cfg := testConfig()
	src := NewSource(cfg)
	want := Schedule(cfg, 8)
	for i, w := range want {
		if got := src.Next(); got != w {
			t.Fatalf("Next()[%d] = %v, Schedule = %v", i, got, w)
		}
	}
}

// Reset rewinds the attempt (delays restart near Min) but not the jitter
// stream (the restarted delays are not a byte-for-byte replay).
func TestResetRewindsAttemptNotJitter(t *testing.T) {
	cfg := testConfig()
	src := NewSource(cfg)
	first := src.Next()
	for i := 0; i < 3; i++ {
		src.Next()
	}
	src.Reset()
	if src.attempt != 0 {
		t.Fatalf("attempt after Reset = %d", src.attempt)
	}
	again := src.Next()
	hi := time.Duration(float64(cfg.Min) * (1 + cfg.JitterFrac))
	if again < cfg.Min || again >= hi {
		t.Fatalf("post-Reset delay %v outside first-attempt band [%v, %v)", again, cfg.Min, hi)
	}
	if again == first {
		t.Fatalf("post-Reset delay replayed the jitter stream (%v)", again)
	}
}

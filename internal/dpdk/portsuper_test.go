package dpdk

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// The stubs below are package-local on purpose: the dpdk tests cannot use
// internal/faultinject (it imports dpdk), so the supervisor is exercised
// against minimal backends that fail on command.

// errBackend is a ring backend whose queues report a settable fatal error.
// It is not reopenable: once Down, the port stays Down (the exhausted-trace
// shape).
type errBackend struct {
	*RingBackend
	err atomic.Pointer[error]
}

func newErrBackend(queues int) *errBackend {
	return &errBackend{RingBackend: NewRingBackend(64, queues)}
}

func (b *errBackend) setErr(err error) { b.err.Store(&err) }

func (b *errBackend) QueueError(q int) error {
	if e := b.err.Load(); e != nil {
		return *e
	}
	return b.RingBackend.QueueError(q)
}

// reopenBackend extends errBackend with a Reopen that fails failLeft times
// before succeeding (and clearing the fatal error).
type reopenBackend struct {
	errBackend
	failLeft atomic.Int32
	reopens  atomic.Int32
}

func newReopenBackend(queues int, failures int) *reopenBackend {
	b := &reopenBackend{errBackend: errBackend{RingBackend: NewRingBackend(64, queues)}}
	b.failLeft.Store(int32(failures))
	return b
}

func (b *reopenBackend) Reopen() error {
	b.reopens.Add(1)
	if b.failLeft.Add(-1) >= 0 {
		return errors.New("reopen refused")
	}
	b.err.Store(nil)
	return nil
}

// blockBackend is a ring backend whose RxBurst parks on a channel while the
// gate is up — the wedged-syscall shape the worker watchdog exists for.
type blockBackend struct {
	*RingBackend
	gate    atomic.Bool
	release chan struct{}
}

func newBlockBackend(queues int) *blockBackend {
	return &blockBackend{RingBackend: NewRingBackend(64, queues), release: make(chan struct{})}
}

func (b *blockBackend) RxBurst(q int, out [][]byte) int {
	if b.gate.Load() {
		<-b.release
	}
	return b.RingBackend.RxBurst(q, out)
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// fastSupConfig is a scan/backoff geometry quick enough for unit tests.
func fastSupConfig() PortSupervisorConfig {
	return PortSupervisorConfig{
		Interval:   time.Millisecond,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 16 * time.Millisecond,
		Seed:       7,
	}
}

func TestPortSupervisorFatalErrorParksPortDown(t *testing.T) {
	be1, be2 := newErrBackend(1), newErrBackend(1)
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{Backends: []PortBackend{be1, be2}})
	defer sw.Close()
	ps := sw.StartPortSupervisor(fastSupConfig())
	defer ps.Stop()

	boom := errors.New("fd died")
	be1.setErr(boom)
	p1, _ := sw.Port(1)
	waitFor(t, time.Second, func() bool { return p1.LinkState() == LinkDown },
		"port 1 never went Down on a fatal queue error")

	// Workers skip Down ports: a frame on port 1 is never picked up, while
	// port 2 keeps forwarding.
	frame := make([]byte, pkt.MinPacketLen)
	p1.InjectOn(0, frame)
	p2, _ := sw.Port(2)
	p2.InjectOn(0, frame)
	if n := sw.PollOnce(nil); n != 1 {
		t.Fatalf("PollOnce over one Down and one Up port = %d, want 1", n)
	}
	if got := p1.RxQueueLen(0); got != 1 {
		t.Fatalf("Down port's RX queue drained (%d left, want 1)", got)
	}

	// The backend is not reopenable: the port must stay Down and the
	// supervisor must not even attempt a reopen.
	time.Sleep(20 * time.Millisecond)
	if st := p1.LinkState(); st != LinkDown {
		t.Fatalf("non-reopenable port recovered to %v", st)
	}
	if n := ps.Reopens(); n != 0 {
		t.Fatalf("supervisor attempted %d reopens on a non-reopenable backend", n)
	}

	evs := ps.Events()
	if len(evs) == 0 || evs[0].State != LinkDown || !errors.Is(evs[0].Err, boom) {
		t.Fatalf("missing/incomplete Down event: %+v", evs)
	}
	st := sw.Stats()
	if st.PortsDown != 1 {
		t.Fatalf("Stats().PortsDown = %d, want 1", st.PortsDown)
	}
}

func TestPortSupervisorReopenFollowsBackoffSchedule(t *testing.T) {
	const failures = 4
	be := newReopenBackend(1, failures)
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{Backends: []PortBackend{be}})
	defer sw.Close()
	cfg := fastSupConfig()
	ps := sw.StartPortSupervisor(cfg)
	defer ps.Stop()

	be.setErr(errors.New("fd died"))
	p, _ := sw.Port(1)
	waitFor(t, time.Second, func() bool { return p.LinkState() == LinkUp && ps.Reopens() > failures },
		"port never healed through the failing reopens")

	got := ps.Backoffs(1)
	want := PortBackoffSchedule(cfg, failures)
	if len(got) != failures {
		t.Fatalf("recorded %d backoff delays, want %d: %v", len(got), failures, got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, oracle says %v (full: got %v want %v)", i, got[i], want[i], got, want)
		}
	}
	if f := ps.ReopenFails(); f != failures {
		t.Fatalf("ReopenFails = %d, want %d", f, failures)
	}
}

// TestPortSupervisorEventsBounded bounces a port well past maxRecorded
// transitions: the supervisor keeps the first maxRecorded events.
func TestPortSupervisorEventsBounded(t *testing.T) {
	be := newReopenBackend(1, 0) // every reopen succeeds immediately
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{Backends: []PortBackend{be}})
	defer sw.Close()
	ps := sw.StartPortSupervisor(fastSupConfig())
	defer ps.Stop()
	for i := int32(1); i <= maxRecorded/2+8; i++ { // two transitions a bounce
		be.setErr(errors.New("bounce"))
		waitFor(t, time.Second, func() bool { return be.reopens.Load() >= i }, "bounce: no reopen")
	}
	evs := ps.Events()
	if len(evs) != maxRecorded || ps.Transitions() <= maxRecorded || evs[0].State != LinkDown {
		t.Fatalf("%d events recorded over %d transitions, want the first %d", len(evs), ps.Transitions(), maxRecorded)
	}
}

// TestPortSupervisorBackoffsBounded keeps a port's reopens failing well past
// maxRecorded attempts: the supervisor keeps the first maxRecorded delays,
// still the schedule PortBackoffSchedule gives.
func TestPortSupervisorBackoffsBounded(t *testing.T) {
	be := newReopenBackend(1, 1<<30)
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{Backends: []PortBackend{be}})
	defer sw.Close()
	cfg := fastSupConfig()
	cfg.BackoffMax = cfg.BackoffMin
	ps := sw.StartPortSupervisor(cfg)
	defer ps.Stop()
	be.setErr(errors.New("fd died"))
	waitFor(t, 5*time.Second, func() bool { return ps.ReopenFails() > maxRecorded+8 }, "too few failed reopens")
	got, want := ps.Backoffs(1), PortBackoffSchedule(cfg, maxRecorded)
	if len(got) != maxRecorded {
		t.Fatalf("%d backoffs recorded over %d failed reopens, want %d", len(got), ps.ReopenFails(), maxRecorded)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, oracle says %v", i, got[i], want[i])
		}
	}
}

func TestPortSupervisorFlapLabelAndDecay(t *testing.T) {
	be := newReopenBackend(1, 0) // every reopen succeeds immediately
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{Backends: []PortBackend{be}})
	defer sw.Close()
	cfg := fastSupConfig()
	cfg.FlapThreshold = 3
	cfg.FlapWindow = 250 * time.Millisecond
	ps := sw.StartPortSupervisor(cfg)
	defer ps.Stop()
	p, _ := sw.Port(1)

	// Bounce the port FlapThreshold times inside the window: the first two
	// recoveries come back Up, the third comes back Flapping.  The Down
	// phase can last a single scan (the reopen succeeds immediately), so
	// progress is tracked through the recorded events, not sampled state.
	downEvents := func() int {
		n := 0
		for _, ev := range ps.Events() {
			if ev.State == LinkDown {
				n++
			}
		}
		return n
	}
	for i := 1; i <= 3; i++ {
		be.setErr(errors.New("bounce"))
		waitFor(t, time.Second, func() bool { return downEvents() >= i }, "bounce: no Down")
		waitFor(t, time.Second, func() bool { return p.LinkState() != LinkDown }, "bounce: no recovery")
	}
	if st := p.LinkState(); st != LinkFlapping {
		t.Fatalf("after 3 bounces in the window, state = %v, want flapping", st)
	}
	if st := sw.Stats(); st.PortsFlapping != 1 {
		t.Fatalf("Stats().PortsFlapping = %d, want 1", st.PortsFlapping)
	}

	// Flapping ports still forward.
	frame := make([]byte, pkt.MinPacketLen)
	p.InjectOn(0, frame)
	if n := sw.PollOnce(nil); n != 1 {
		t.Fatalf("PollOnce on a Flapping port = %d, want 1", n)
	}

	// A quiet window decays the label back to Up.
	waitFor(t, 2*time.Second, func() bool { return p.LinkState() == LinkUp },
		"flap label never decayed after a quiet window")
}

func TestPortSupervisorWatchdogStall(t *testing.T) {
	be1, be2 := newBlockBackend(1), newBlockBackend(1)
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{Backends: []PortBackend{be1, be2}})
	defer sw.Close()
	stop := sw.RunWorkers(1)
	defer stop()

	cfg := fastSupConfig()
	cfg.StallTimeout = 50 * time.Millisecond
	ps := sw.StartPortSupervisor(cfg)
	defer ps.Stop()

	// Let the worker heartbeat freely first, then wedge port 1's RxBurst.
	time.Sleep(10 * time.Millisecond)
	be1.gate.Store(true)
	p1, _ := sw.Port(1)
	waitFor(t, 2*time.Second, func() bool { return ps.Stalls() >= 1 },
		"watchdog never declared the wedged worker stalled")
	waitFor(t, time.Second, func() bool { return p1.LinkState() == LinkDown },
		"stalled worker's port never went Down")

	// Release the syscall: the worker resumes, skips the Down port, and
	// port 2 forwards again.
	be1.gate.Store(false)
	close(be1.release)
	p2, _ := sw.Port(2)
	frame := make([]byte, pkt.MinPacketLen)
	waitFor(t, 2*time.Second, func() bool {
		p2.InjectOn(0, frame)
		return p2.Stats().TxPackets > 0 || sw.Stats().Processed > 0
	}, "surviving port never forwarded after the stall")
}

func TestPanicContainmentQuarantinesBurst(t *testing.T) {
	poison := func(p *pkt.Packet, v *openflow.Verdict) {
		if p.Data[0] == 0xFF {
			panic("poison frame")
		}
		echoDatapath(p, v)
	}
	sw := NewSwitchWithConfig(DatapathFunc(poison), SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 1})
	defer sw.Close()
	p1, _ := sw.Port(1)

	good := make([]byte, pkt.MinPacketLen)
	bad := make([]byte, pkt.MinPacketLen)
	bad[0] = 0xFF
	// The whole burst is quarantined, the good frame ahead of the poison
	// included: every datapath classifies the burst in one ProcessBurst
	// call, and staging starts only after classification finishes, so a
	// panic inside it leaves no frame staged.
	p1.InjectOn(0, good)
	p1.InjectOn(0, bad)
	p1.InjectOn(0, good)
	sw.PollOnce(nil)

	st := sw.Stats()
	if st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
	if st.Quarantined != 3 {
		t.Fatalf("Quarantined = %d, want 3 (the whole burst)", st.Quarantined)
	}
	if st.Forwarded != 0 {
		t.Fatalf("Forwarded = %d, want 0 (nothing stages before classification ends)", st.Forwarded)
	}
	if st.Processed != 3 {
		t.Fatalf("Processed = %d, want 3 (quarantined frames still count as processed)", st.Processed)
	}

	// The worker path survives: the next poll forwards normally.
	p1.InjectOn(0, good)
	if n := sw.PollOnce(nil); n != 1 {
		t.Fatalf("PollOnce after contained panic = %d, want 1", n)
	}
	if st := sw.Stats(); st.Panics != 1 {
		t.Fatalf("Panics after healthy poll = %d, want still 1", st.Panics)
	}
}

func TestHeartbeatRegisterRetire(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 2})
	defer sw.Close()
	if n := len(sw.heartbeats()); n != 0 {
		t.Fatalf("heartbeats before workers = %d, want 0", n)
	}
	stop := sw.RunWorkers(2)
	waitFor(t, time.Second, func() bool { return len(sw.heartbeats()) == 2 },
		"worker heartbeats never registered")
	hbs := sw.heartbeats()
	waitFor(t, time.Second, func() bool {
		for _, hb := range hbs {
			if hb.beats.Load() == 0 {
				return false
			}
		}
		return true
	}, "worker heartbeats never advanced")
	stop()
	if n := len(sw.heartbeats()); n != 0 {
		t.Fatalf("heartbeats after stop = %d, want 0", n)
	}
}

func TestPortSupervisorStopIdempotent(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 1, RingSize: 64, Queues: 1})
	defer sw.Close()
	ps := sw.StartPortSupervisor(fastSupConfig())
	ps.Stop()
	ps.Stop()
}

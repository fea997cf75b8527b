package dpdk

import (
	"sync"
	"sync/atomic"
	"time"

	"eswitch/internal/backoff"
)

// This file is the port fault domain: the per-port link-state machine, the
// supervisor goroutine that drives it off the hot path, and the worker
// watchdog.  The design mirrors the controller-channel supervisor
// (internal/controller): a single off-path goroutine owns all transitions,
// failure detection is pull-based over lock-free signals the hot loops
// already produce (backend queue-error slots, heartbeat counters), and
// recovery retries under the shared deterministic backoff generator
// (internal/backoff) so chaos tests can assert the exact reopen schedule.
//
// The workers' entire involvement costs one atomic load per port per poll
// (skip Down ports) and one heartbeat bump per poll — nothing locks,
// nothing allocates, and a switch that never starts a supervisor behaves
// exactly as before (the zero link-state value is Up).

// LinkState is a port's position in the link-state machine.
//
//	Up ──(fatal queue error | worker stall)──▶ Down
//	Down ──(Reopen ok, quiet history)──▶ Up
//	Down ──(Reopen ok, ≥FlapThreshold downs in FlapWindow)──▶ Flapping
//	Flapping ──(FlapWindow with no downs)──▶ Up
//	Flapping ──(fatal queue error | worker stall)──▶ Down
//
// Up and Flapping ports are polled and forward; Down ports are skipped by
// every worker and, when their backend is reopenable, re-dialed by the
// supervisor under the backoff schedule.  Flapping is an advisory label —
// the port works, but its recent history says not to trust it yet — that
// operators and the controller see via PortStatus.
type LinkState uint32

const (
	// LinkUp: healthy, polled.  The zero value, so unsupervised switches
	// never leave it.
	LinkUp LinkState = iota
	// LinkDown: a fatal backend error or a watchdog verdict parked the
	// port; workers skip it.
	LinkDown
	// LinkFlapping: recovered, but with enough recent Down transitions that
	// the supervisor flags it as bouncing.
	LinkFlapping
)

// String renders the state for logs, stats output and test failures.
func (s LinkState) String() string {
	switch s {
	case LinkDown:
		return "down"
	case LinkFlapping:
		return "flapping"
	}
	return "up"
}

// workerHeartbeat is one RunWorkers worker's liveness block: beats advances
// once per poll iteration and polling names the port currently being polled
// (1-based ID; 0 between ports), both written only by the owning worker.
// The padding gives each worker's block its own cache line so the watchdog's
// reads never false-share with the hot loop.
type workerHeartbeat struct {
	beats   atomic.Uint64
	polling atomic.Uint64
	_       [112]byte
}

// registerHeartbeat publishes a new worker's heartbeat block (copy-on-write
// under mu; the watchdog reads the published slice lock-free).
func (s *Switch) registerHeartbeat() *workerHeartbeat {
	hb := &workerHeartbeat{}
	s.mu.Lock()
	old := s.hbs.Load()
	var next []*workerHeartbeat
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, hb)
	s.hbs.Store(&next)
	s.mu.Unlock()
	return hb
}

// retireHeartbeat withdraws a stopped worker's block from the watchdog's
// view.
func (s *Switch) retireHeartbeat(hb *workerHeartbeat) {
	s.mu.Lock()
	if old := s.hbs.Load(); old != nil {
		next := make([]*workerHeartbeat, 0, len(*old))
		for _, o := range *old {
			if o != hb {
				next = append(next, o)
			}
		}
		s.hbs.Store(&next)
	}
	s.mu.Unlock()
}

// heartbeats snapshots the live workers' heartbeat blocks without locking.
func (s *Switch) heartbeats() []*workerHeartbeat {
	if p := s.hbs.Load(); p != nil {
		return *p
	}
	return nil
}

// PortLinkEvent is one link-state transition, delivered to the
// OnTransition hook (and recorded for tests/operators).
type PortLinkEvent struct {
	// Port is the 1-based port ID.
	Port uint32
	// State is the state the port transitioned into.
	State LinkState
	// Reason is a short operator-facing cause ("fatal queue error",
	// "worker stalled", "reopened", "flap window expired").
	Reason string
	// Err carries the backend error behind a Down transition (nil
	// otherwise).
	Err error
}

// PortSupervisorConfig parameterizes StartPortSupervisor.
type PortSupervisorConfig struct {
	// Interval is the scan cadence (default 5ms): how often queue errors
	// and heartbeats are sampled.  Detection latency is one interval, which
	// is invisible next to the backoff delays recovery waits anyway.
	Interval time.Duration
	// StallTimeout is how long a worker's heartbeat may stay flat before
	// the watchdog declares it stalled and takes the port it was polling
	// Down (default 500ms; negative disables the watchdog).  Workers bump
	// their heartbeat every poll including idle ones, so only a wedged
	// backend syscall (or a livelocked datapath) trips this.
	StallTimeout time.Duration
	// BackoffMin/BackoffMax/JitterFrac/Seed parameterize the reopen backoff
	// exactly like the controller supervisor's redial knobs (defaults
	// 50ms/5s/0.25): PortBackoffSchedule reproduces the delay sequence each
	// port's reopen attempts follow.
	BackoffMin time.Duration
	BackoffMax time.Duration
	JitterFrac float64
	Seed       int64
	// FlapThreshold Down transitions within FlapWindow label a recovered
	// port Flapping instead of Up (defaults 3 / 1s); a FlapWindow with no
	// further downs clears the label.
	FlapThreshold int
	FlapWindow    time.Duration
	// OnTransition, when set, observes every link-state transition from the
	// supervisor goroutine — the hook that forwards PortStatus to the
	// control plane.  Keep it brief; it runs on the scan loop.
	OnTransition func(ev PortLinkEvent)
}

// portSupervisorDefaults fills the zero-valued knobs in place.
func portSupervisorDefaults(cfg *PortSupervisorConfig) {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 500 * time.Millisecond
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 50 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = 5 * time.Second
		if cfg.BackoffMax < cfg.BackoffMin {
			cfg.BackoffMax = cfg.BackoffMin
		}
	}
	if cfg.JitterFrac <= 0 {
		cfg.JitterFrac = 0.25
	}
	if cfg.FlapThreshold <= 0 {
		cfg.FlapThreshold = 3
	}
	if cfg.FlapWindow <= 0 {
		cfg.FlapWindow = time.Second
	}
}

// backoffConfig maps the supervisor knobs onto the shared generator.
func (cfg PortSupervisorConfig) backoffConfig() backoff.Config {
	return backoff.Config{
		Min:        cfg.BackoffMin,
		Max:        cfg.BackoffMax,
		JitterFrac: cfg.JitterFrac,
		Seed:       cfg.Seed,
	}
}

// PortBackoffSchedule reproduces the first n reopen delays any single port
// under this config schedules over consecutive failed reopens — the oracle
// chaos tests compare each port's recorded sequence against.  Every port
// owns an independent generator seeded with cfg.Seed, so the schedule is
// per-port, not shared.
func PortBackoffSchedule(cfg PortSupervisorConfig, n int) []time.Duration {
	portSupervisorDefaults(&cfg)
	return backoff.Schedule(cfg.backoffConfig(), n)
}

// supervisedPort is the supervisor's private per-port runtime.
type supervisedPort struct {
	p *Port
	// ro is the backend's reopen extension (nil = a Down port is permanent:
	// an exhausted trace has nothing to re-dial).
	ro ReopenableBackend
	// src generates this port's reopen backoff delays.
	src *backoff.Source
	// nextReopen gates reopen attempts; the first attempt after a Down
	// transition is immediate (zero time).
	nextReopen time.Time
	// downs holds recent Down transition times inside the flap window.
	downs []time.Time
	// lastDown feeds the flap label's decay.
	lastDown time.Time
	// backoffs records the first maxRecorded scheduled reopen delays (read
	// via Backoffs under the supervisor mutex).
	backoffs []time.Duration
}

// PortSupervisor owns every port's link-state transitions: it scans backend
// queue errors and worker heartbeats at a fixed cadence, parks failing
// ports Down, re-dials reopenable backends under the deterministic backoff
// schedule, and labels bouncing ports Flapping.  One per switch; start it
// with Switch.StartPortSupervisor.
type PortSupervisor struct {
	s   *Switch
	cfg PortSupervisorConfig

	mu    sync.Mutex
	ports []*supervisedPort
	// events records the first maxRecorded link-state transitions.
	events []PortLinkEvent

	// beatSeen tracks each heartbeat block's last observed count (scan-
	// goroutine-private).
	beatSeen map[*workerHeartbeat]*beatTrack

	transitions atomic.Uint64
	reopens     atomic.Uint64
	reopenFails atomic.Uint64
	stalls      atomic.Uint64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// beatTrack is the watchdog's memory of one heartbeat block.
type beatTrack struct {
	beats    uint64
	lastMove time.Time
	stalled  bool
}

// StartPortSupervisor launches the port supervision loop over every port of
// the switch.  Call Stop before closing the switch.  The scan goroutine
// never touches the switch's registration mutex, so arming the supervisor
// does not perturb the zero-lock worker-path assertions.
func (s *Switch) StartPortSupervisor(cfg PortSupervisorConfig) *PortSupervisor {
	portSupervisorDefaults(&cfg)
	ps := &PortSupervisor{
		s:        s,
		cfg:      cfg,
		beatSeen: make(map[*workerHeartbeat]*beatTrack),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, p := range s.ports {
		sp := &supervisedPort{p: p, src: backoff.NewSource(cfg.backoffConfig())}
		if ro, ok := p.be.(ReopenableBackend); ok {
			sp.ro = ro
		}
		ps.ports = append(ps.ports, sp)
	}
	go func() {
		defer close(ps.done)
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ps.stop:
				return
			case <-ticker.C:
				ps.scan(time.Now())
			}
		}
	}()
	return ps
}

// Stop halts the scan loop and waits for it to exit.  Idempotent.  Link
// states are left as they are: a Down port stays Down (and skipped) after
// supervision ends.
func (ps *PortSupervisor) Stop() {
	ps.once.Do(func() { close(ps.stop) })
	<-ps.done
}

// Transitions returns how many link-state transitions the supervisor made.
func (ps *PortSupervisor) Transitions() uint64 { return ps.transitions.Load() }

// Reopens returns how many backend reopen attempts were made.
func (ps *PortSupervisor) Reopens() uint64 { return ps.reopens.Load() }

// ReopenFails returns how many reopen attempts failed.
func (ps *PortSupervisor) ReopenFails() uint64 { return ps.reopenFails.Load() }

// Stalls returns how many worker-stall verdicts the watchdog issued.
func (ps *PortSupervisor) Stalls() uint64 { return ps.stalls.Load() }

// maxRecorded bounds the supervisor's recorders (events, each port's
// backoffs).  Only tests read them, and a long-running switch with a
// flapping port must not grow them without bound; the first maxRecorded
// entries are kept, so a schedule still compares from attempt 0.
const maxRecorded = 64

// Backoffs returns the reopen delays scheduled for the given port so far, in
// order and at most maxRecorded of them — the sequence PortBackoffSchedule
// reproduces.
func (ps *PortSupervisor) Backoffs(port uint32) []time.Duration {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, sp := range ps.ports {
		if sp.p.ID == port {
			return append([]time.Duration(nil), sp.backoffs...)
		}
	}
	return nil
}

// scan is one supervision pass: watchdog verdicts first (a stalled worker
// names the port to blame), then queue-error detection, then reopen/decay
// per port.
func (ps *PortSupervisor) scan(now time.Time) {
	ps.scanHeartbeats(now)
	for _, sp := range ps.ports {
		if sp.p.Closed() {
			continue
		}
		switch sp.p.LinkState() {
		case LinkUp, LinkFlapping:
			if err := ps.queueError(sp.p); err != nil {
				ps.markDown(sp, now, "fatal queue error", err)
				continue
			}
			if sp.p.LinkState() == LinkFlapping && now.Sub(sp.lastDown) > ps.cfg.FlapWindow {
				ps.transition(sp, LinkFlapping, LinkUp, "flap window expired", nil)
			}
		case LinkDown:
			ps.tryReopen(sp, now)
		}
	}
}

// scanHeartbeats compares every live worker's heartbeat against the last
// scan; a counter flat for StallTimeout is a stalled worker — most likely a
// backend syscall that never returned — and the port it was polling is
// taken Down so the remaining workers (and the stalled worker itself, once
// its syscall returns) skip it.
func (ps *PortSupervisor) scanHeartbeats(now time.Time) {
	if ps.cfg.StallTimeout < 0 {
		return
	}
	hbs := ps.s.heartbeats()
	if len(hbs) == 0 && len(ps.beatSeen) == 0 {
		// No workers registered (PollOnce-driven switches): stay off the
		// allocator entirely so a full-cadence supervisor is invisible to
		// the zero-alloc worker-path assertions.
		return
	}
	live := make(map[*workerHeartbeat]bool, len(hbs))
	for _, hb := range hbs {
		live[hb] = true
		tr := ps.beatSeen[hb]
		if tr == nil {
			ps.beatSeen[hb] = &beatTrack{beats: hb.beats.Load(), lastMove: now}
			continue
		}
		if b := hb.beats.Load(); b != tr.beats {
			tr.beats, tr.lastMove, tr.stalled = b, now, false
			continue
		}
		if tr.stalled || now.Sub(tr.lastMove) < ps.cfg.StallTimeout {
			continue
		}
		tr.stalled = true
		ps.stalls.Add(1)
		if pid := hb.polling.Load(); pid != 0 {
			for _, sp := range ps.ports {
				if uint64(sp.p.ID) == pid && !sp.p.Closed() && sp.p.LinkState() != LinkDown {
					ps.markDown(sp, now, "worker stalled", nil)
				}
			}
		}
	}
	for hb := range ps.beatSeen {
		if !live[hb] {
			delete(ps.beatSeen, hb)
		}
	}
}

// queueError polls every queue's error slot of a port's backend.
func (ps *PortSupervisor) queueError(p *Port) error {
	for q := 0; q < p.nq; q++ {
		if err := p.be.QueueError(q); err != nil {
			return err
		}
	}
	return nil
}

// markDown parks a port Down: workers skip it from their next poll, and the
// reopen path (when the backend supports it) starts immediately.
func (ps *PortSupervisor) markDown(sp *supervisedPort, now time.Time, reason string, err error) {
	from := sp.p.LinkState()
	sp.lastDown = now
	sp.downs = append(sp.downs, now)
	// Trim the flap history to the window so it cannot grow unbounded.
	cut := 0
	for cut < len(sp.downs) && now.Sub(sp.downs[cut]) > ps.cfg.FlapWindow {
		cut++
	}
	sp.downs = sp.downs[cut:]
	sp.nextReopen = time.Time{} // first reopen attempt is immediate
	ps.transition(sp, from, LinkDown, reason, err)
}

// tryReopen drives a Down port's self-healing: attempt Reopen when its
// backoff gate has passed, rescheduling with the next backoff delay on
// failure and transitioning to Up (or Flapping, with a bouncy history) on
// success.  Ports whose backend cannot reopen stay Down.
func (ps *PortSupervisor) tryReopen(sp *supervisedPort, now time.Time) {
	if sp.ro == nil || now.Before(sp.nextReopen) {
		return
	}
	ps.reopens.Add(1)
	if err := sp.ro.Reopen(); err != nil {
		ps.reopenFails.Add(1)
		d := sp.src.Next()
		ps.mu.Lock()
		if len(sp.backoffs) < maxRecorded {
			sp.backoffs = append(sp.backoffs, d)
		}
		ps.mu.Unlock()
		sp.nextReopen = now.Add(d)
		return
	}
	sp.src.Reset()
	to, reason := LinkUp, "reopened"
	if len(sp.downs) >= ps.cfg.FlapThreshold {
		to, reason = LinkFlapping, "reopened (flapping)"
	}
	ps.transition(sp, LinkDown, to, reason, nil)
}

// transition publishes a state change, records the event, and runs the
// OnTransition hook.
func (ps *PortSupervisor) transition(sp *supervisedPort, from, to LinkState, reason string, err error) {
	if from == to {
		return
	}
	sp.p.setLink(to)
	ps.transitions.Add(1)
	ev := PortLinkEvent{Port: sp.p.ID, State: to, Reason: reason, Err: err}
	ps.mu.Lock()
	if len(ps.events) < maxRecorded {
		ps.events = append(ps.events, ev)
	}
	ps.mu.Unlock()
	if ps.cfg.OnTransition != nil {
		ps.cfg.OnTransition(ev)
	}
}

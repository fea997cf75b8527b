package controller

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eswitch/internal/backoff"
	"eswitch/internal/ofp"
)

// This file is the control-channel supervision half of the failure plane:
// the switch-side loop that keeps an OpenFlow channel alive across
// controller death.  A Supervisor owns the channel's lifecycle — dial,
// serve, probe liveness with periodic EchoRequests under a read deadline,
// tear down on silence, redial under capped exponential backoff with seeded
// jitter — and tells the dataplane (through the OnUp/OnDown hooks) when to
// enter and leave its degraded fail mode.  What the dataplane does while
// degraded is its own policy (dpdk.FailMode: fail-standalone keeps installed
// flows forwarding with punts suppressed, fail-secure drops
// controller-dependent packets); the supervisor only drives the transitions.

// SupervisorState is the supervision state machine's current state.
type SupervisorState uint32

const (
	// SupervisorConnecting: no session yet (dialing / backing off before
	// the first connect).
	SupervisorConnecting SupervisorState = iota
	// SupervisorUp: a session is established and its liveness clock is
	// being probed.
	SupervisorUp
	// SupervisorDegraded: the last session died; the dataplane is in its
	// configured fail mode while the supervisor backs off and redials.
	SupervisorDegraded
)

// String renders the state for logs and test failures.
func (s SupervisorState) String() string {
	switch s {
	case SupervisorUp:
		return "up"
	case SupervisorDegraded:
		return "degraded"
	}
	return "connecting"
}

// SupervisorConfig parameterizes a Supervisor.
type SupervisorConfig struct {
	// Dial establishes the control connection (required), dialing out or
	// accepting (a listener's Accept).  Fault-injection harnesses wrap the
	// returned conn here.  Stop waits for Dial to return.
	Dial func() (net.Conn, error)
	// Agent serves the established channel (required).
	Agent *Agent
	// EchoInterval is how often the supervisor probes the channel with an
	// EchoRequest (default 500ms); EchoTimeout is how long after the last
	// EchoReply the channel is declared dead (default 3×EchoInterval).
	// The read side additionally carries a deadline of
	// EchoInterval+EchoTimeout, so a fully stalled TCP connection cannot
	// hold Serve hostage past the liveness verdict.
	EchoInterval time.Duration
	EchoTimeout  time.Duration
	// BackoffMin/BackoffMax bound the capped exponential redial backoff
	// (defaults 50ms / 5s); JitterFrac is the multiplicative jitter spread
	// (default 0.25: each delay is scaled by 1+U[0,JitterFrac)).  Seed
	// makes the jitter sequence deterministic — BackoffSchedule reproduces
	// it, which is what the chaos tests assert against.
	BackoffMin time.Duration
	BackoffMax time.Duration
	JitterFrac float64
	Seed       int64
	// OnUp runs when a session is established, with the session's
	// synchronized writer (the slow-path service's PacketIn sink).  It
	// returns a teardown hook run when the session dies (nil for none),
	// after the connection is closed.  Re-arming the slow path and clearing
	// the dataplane's fail mode belong here (Session.OnUp does both).
	OnUp func(w *SyncWriter) func()
	// OnDown runs when a session dies (after OnUp's teardown), with the
	// session's terminal error.  Entering the dataplane's fail mode
	// belongs here.  It does not run for dial failures — the datapath was
	// already down.
	OnDown func(err error)
}

// Supervisor keeps one OpenFlow control channel alive: dial, serve, probe,
// tear down, back off, redial.  Start launches the loop; Stop halts it and
// closes any live session.
type Supervisor struct {
	cfg SupervisorConfig
	src *backoff.Source

	state        atomic.Uint32
	sessions     atomic.Uint64
	dialFailures atomic.Uint64
	echoTimeouts atomic.Uint64

	mu       sync.Mutex
	backoffs []time.Duration

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// supervisorDefaults fills the zero-valued knobs in place.
func supervisorDefaults(cfg *SupervisorConfig) {
	if cfg.EchoInterval <= 0 {
		cfg.EchoInterval = 500 * time.Millisecond
	}
	if cfg.EchoTimeout <= 0 {
		cfg.EchoTimeout = 3 * cfg.EchoInterval
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
}

// NewSupervisor validates the config and returns a supervisor ready to
// Start.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("controller: SupervisorConfig.Dial is required")
	}
	if cfg.Agent == nil {
		return nil, fmt.Errorf("controller: SupervisorConfig.Agent is required")
	}
	supervisorDefaults(&cfg)
	return &Supervisor{
		cfg:  cfg,
		src:  backoff.NewSource(cfg.backoffConfig()),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// State returns the supervision state machine's current state.
func (s *Supervisor) State() SupervisorState { return SupervisorState(s.state.Load()) }

// Sessions returns how many sessions were established.
func (s *Supervisor) Sessions() uint64 { return s.sessions.Load() }

// EchoTimeouts returns how many sessions the liveness probe tore down.
func (s *Supervisor) EchoTimeouts() uint64 { return s.echoTimeouts.Load() }

// Backoffs returns every backoff delay the supervisor has slept, in order —
// the deterministic sequence BackoffSchedule reproduces from the same
// config.
func (s *Supervisor) Backoffs() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.backoffs...)
}

// Start launches the supervision loop.
func (s *Supervisor) Start() {
	go func() {
		defer close(s.done)
		s.run()
	}()
}

// Stop halts the loop, tears down any live session, and waits for the loop
// to exit.  Idempotent.
func (s *Supervisor) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

func (s *Supervisor) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// run is the supervision loop: dial (backing off on failure), serve the
// session until it dies, flip the dataplane down, repeat.  The backoff
// attempt counter resets on every established session, so a flap after a
// healthy period starts the schedule over at BackoffMin.
func (s *Supervisor) run() {
	for !s.stopped() {
		conn, err := s.cfg.Dial()
		if err != nil {
			s.dialFailures.Add(1)
			if !s.sleep(s.nextBackoff()) {
				return
			}
			continue
		}
		s.src.Reset()
		s.sessions.Add(1)
		// SupervisorUp is published by serveSession only after the OnUp hook
		// has armed the dataplane: a caller that observes Up may immediately
		// rely on the slow path being live and the fail mode cleared.
		err = s.serveSession(conn)
		// Likewise SupervisorDegraded follows the OnDown hook: a caller
		// that observes it sees the dataplane already in its fail mode.
		if s.cfg.OnDown != nil {
			s.cfg.OnDown(err)
		}
		s.state.Store(uint32(SupervisorDegraded))
	}
}

// backoffConfig maps the supervisor knobs onto the shared backoff
// generator's config (internal/backoff owns the formula; the port
// supervisor in internal/dpdk uses the same generator).
func (cfg SupervisorConfig) backoffConfig() backoff.Config {
	return backoff.Config{
		Min:        cfg.BackoffMin,
		Max:        cfg.BackoffMax,
		JitterFrac: cfg.JitterFrac,
		Seed:       cfg.Seed,
	}
}

// nextBackoff draws (and records) the next delay from the shared seeded
// generator: min(BackoffMax, BackoffMin·2^attempt) scaled by
// 1+U[0,JitterFrac).
func (s *Supervisor) nextBackoff() time.Duration {
	d := s.src.Next()
	s.mu.Lock()
	s.backoffs = append(s.backoffs, d)
	s.mu.Unlock()
	return d
}

// BackoffSchedule reproduces the first n backoff delays a fresh Supervisor
// with this config would sleep over consecutive dial failures — the oracle
// the chaos tests compare the recorded sequence against.
func BackoffSchedule(cfg SupervisorConfig, n int) []time.Duration {
	supervisorDefaults(&cfg)
	return backoff.Schedule(cfg.backoffConfig(), n)
}

// sleep waits for d or until Stop, reporting false when stopped.
func (s *Supervisor) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	}
}

// deadlineConn arms a read deadline before every Read, so a stalled
// connection surfaces as a timeout error in Serve no later than the liveness
// verdict (EchoInterval+EchoTimeout after the stall began) instead of
// blocking forever.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// serveSession runs one established session to its death and returns the
// terminal error: Agent.Serve in its own goroutine (reading under a rolling
// deadline), the echo probe loop here.  The session dies when Serve returns
// (disconnect, read deadline), when an echo goes unanswered past
// EchoTimeout, or when the supervisor stops.
func (s *Supervisor) serveSession(conn net.Conn) error {
	dc := &deadlineConn{Conn: conn, timeout: s.cfg.EchoInterval + s.cfg.EchoTimeout}
	rw, w := SharedChannel(dc)

	if s.cfg.OnUp != nil {
		if teardown := s.cfg.OnUp(w); teardown != nil {
			defer teardown()
		}
	}
	// Closed before the teardown runs: a writer it waits for may be blocked
	// on a stalled peer.
	defer conn.Close()
	s.state.Store(uint32(SupervisorUp))

	// Arm the liveness clock at session start: the first echo deadline is
	// measured from now, not from a previous session's last reply.
	s.cfg.Agent.markEchoReply(time.Now())

	served := make(chan error, 1)
	go func() { served <- s.cfg.Agent.Serve(rw) }()

	ticker := time.NewTicker(s.cfg.EchoInterval)
	defer ticker.Stop()
	var xid uint32 = 0x5eed0000
	for {
		select {
		case err := <-served:
			return err
		case <-s.stop:
			conn.Close()
			return <-served
		case <-ticker.C:
			xid++
			if err := ofp.WriteMessage(w, ofp.Message{Type: ofp.TypeEchoRequest, Xid: xid}); err != nil {
				conn.Close()
				<-served
				return err
			}
			if age := time.Since(s.cfg.Agent.LastEchoReply()); age > s.cfg.EchoTimeout {
				s.echoTimeouts.Add(1)
				conn.Close() // unblocks Serve's read
				<-served
				return fmt.Errorf("controller: echo timeout (no reply for %v)", age.Round(time.Millisecond))
			}
		}
	}
}

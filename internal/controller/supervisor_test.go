package controller

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
)

// --- supervision: liveness, disconnects, backoff --------------------------------

// muteListener accepts connections and swallows everything written to them
// without ever replying — a controller that is up at the TCP level but
// braindead at the OpenFlow level, which only the echo probe can detect.
func muteListener(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn) }()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestSupervisorEchoTimeout: a TCP-alive but OpenFlow-dead peer must be torn
// down by the liveness probe — the read side never errors on its own, so
// only the unanswered EchoRequests can declare the session dead.
func TestSupervisorEchoTimeout(t *testing.T) {
	addr, stop := muteListener(t)
	defer stop()

	var downs atomic.Uint64
	sup, err := NewSupervisor(SupervisorConfig{
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Agent:        NewAgent(emptyDatapath(t)),
		EchoInterval: 50 * time.Millisecond,
		EchoTimeout:  70 * time.Millisecond,
		BackoffMin:   time.Millisecond,
		BackoffMax:   4 * time.Millisecond,
		OnDown:       func(error) { downs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer sup.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for sup.EchoTimeouts() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no echo timeout after %d sessions against a mute peer", sup.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
	if sup.Sessions() == 0 {
		t.Fatal("echo timeout without a session")
	}
	// The teardown must have propagated: OnDown ran and the loop redialed.
	deadline = time.Now().Add(10 * time.Second)
	for downs.Load() == 0 || sup.Sessions() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("session never recycled: downs %d, sessions %d", downs.Load(), sup.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAgentServeMidMessageDisconnect: a peer dying mid-frame must surface as
// an error from Serve (io.ErrUnexpectedEOF), never as a clean shutdown and
// never as a hang.
func TestAgentServeMidMessageDisconnect(t *testing.T) {
	agentEnd, peer := net.Pipe()
	agent := NewAgent(emptyDatapath(t))
	served := make(chan error, 1)
	go func() { served <- agent.Serve(agentEnd) }()

	// Drain the agent's HELLO, then send a header that promises a 12-byte
	// body, deliver 4 bytes, and die.
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(peer, hdr); err != nil {
		t.Fatal(err)
	}
	partial := []byte{0x04, byte(ofp.TypeFlowMod), 0x00, 20, 0, 0, 0, 9, 1, 2, 3, 4}
	if _, err := peer.Write(partial); err != nil {
		t.Fatal(err)
	}
	peer.Close()

	select {
	case err := <-served:
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("Serve returned %v, want io.ErrUnexpectedEOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve hung on a half-delivered message")
	}
}

// TestSupervisorRedialsAfterMidMessageDisconnect: a peer that keeps dying
// mid-frame produces a sequence of error-terminated sessions, each reported
// to OnDown, each followed by a redial.
func TestSupervisorRedialsAfterMidMessageDisconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Consume the agent's HELLO (leaving it unread would turn the
			// close into a RST instead of a clean FIN), send half a
			// FlowMod, then hang up.
			io.ReadFull(conn, make([]byte, 8))
			conn.Write([]byte{0x04, byte(ofp.TypeFlowMod), 0x00, 20, 0, 0, 0, 9, 1, 2, 3, 4})
			conn.Close()
		}
	}()

	var mu sync.Mutex
	var lastErr error
	sup, err := NewSupervisor(SupervisorConfig{
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Agent:        NewAgent(emptyDatapath(t)),
		EchoInterval: time.Hour, // isolate: only the disconnect ends sessions
		BackoffMin:   time.Millisecond,
		BackoffMax:   4 * time.Millisecond,
		OnDown: func(err error) {
			mu.Lock()
			lastErr = err
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer sup.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for sup.Sessions() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d sessions against a mid-frame-dying peer", sup.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if lastErr == nil || !errors.Is(lastErr, io.ErrUnexpectedEOF) {
		t.Fatalf("OnDown saw %v, want io.ErrUnexpectedEOF", lastErr)
	}
}

// supervisorBackoffBase recomputes the pre-jitter base delay for attempt i
// (the capped exponential the shared backoff generator starts from).
func supervisorBackoffBase(cfg SupervisorConfig, attempt int) time.Duration {
	supervisorDefaults(&cfg)
	d := cfg.BackoffMin
	for i := 0; i < attempt && d < cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	return d
}

// TestSupervisorBackoffDeterminism: the recorded backoff sequence of a
// supervisor that cannot dial is exactly BackoffSchedule's — same seed, same
// jitter, capped exponential base.
func TestSupervisorBackoffDeterminism(t *testing.T) {
	cfg := SupervisorConfig{
		Dial:       func() (net.Conn, error) { return nil, errors.New("refused") },
		Agent:      NewAgent(emptyDatapath(t)),
		BackoffMin: time.Millisecond,
		BackoffMax: 8 * time.Millisecond,
		Seed:       1234,
	}
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	deadline := time.Now().Add(10 * time.Second)
	for len(sup.Backoffs()) < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d backoffs recorded", len(sup.Backoffs()))
		}
		time.Sleep(time.Millisecond)
	}
	sup.Stop()

	got := sup.Backoffs()
	want := BackoffSchedule(cfg, len(got))
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, schedule says %v", i, got[i], want[i])
		}
		base := supervisorBackoffBase(cfg, i)
		if got[i] < base || float64(got[i]) > float64(base)*1.25 {
			t.Fatalf("backoff[%d] = %v outside [%v, 1.25×%v]", i, got[i], base, base)
		}
	}
	if got[0] >= 2*time.Millisecond {
		t.Fatalf("first backoff %v did not start at BackoffMin", got[0])
	}
	// The cap holds: far down the schedule the base saturates at BackoffMax.
	far := BackoffSchedule(cfg, 64)
	if d := far[63]; d < 8*time.Millisecond || float64(d) > float64(8*time.Millisecond)*1.25 {
		t.Fatalf("uncapped backoff %v at attempt 63", d)
	}
	if sup.dialFailures.Load() < uint64(len(got)) {
		t.Fatalf("dialFailures %d < backoffs %d", sup.dialFailures.Load(), len(got))
	}
}

// --- table-capacity guardrail over the channel ----------------------------------

// TestFlowModTableFullErrorReplyAndChannelSurvival: a FlowMod rejected by
// the table-capacity guardrail comes back as
// OFPET_FLOW_MOD_FAILED/TABLE_FULL carrying the offending request, and the
// channel keeps working — the rejection is an answer, not a disconnect.
func TestFlowModTableFullErrorReplyAndChannelSurvival(t *testing.T) {
	pl := openflow.NewPipeline(4)
	opts := core.DefaultOptions()
	opts.MaxTableEntries = 1
	dp, err := core.Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, agent, cleanup := startChannel(t, dp)
	defer cleanup()

	var mu sync.Mutex
	var errs []ofp.ErrorMsg
	ctrl.ErrorHandler = func(em ofp.ErrorMsg) {
		mu.Lock()
		errs = append(errs, em)
		mu.Unlock()
	}

	match := func(dst uint64) *openflow.Match {
		return openflow.NewMatch().Set(openflow.FieldEthDst, dst)
	}
	out := openflow.Instructions{ApplyActions: openflow.ActionList{{Type: openflow.ActionOutput, Port: 2}}}

	if err := ctrl.InstallFlow(0, 10, match(1), out); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.InstallFlow(0, 10, match(2), out); err != nil { // over capacity
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatalf("channel died after a rejected FlowMod: %v", err)
	}

	mu.Lock()
	if len(errs) != 1 {
		mu.Unlock()
		t.Fatalf("got %d error replies, want 1", len(errs))
	}
	em := errs[0]
	mu.Unlock()
	if em.Type != ofp.ErrTypeFlowModFailed || em.Code != ofp.FlowModFailedTableFull {
		t.Fatalf("error reply is %d/%d, want %d/%d", em.Type, em.Code,
			ofp.ErrTypeFlowModFailed, ofp.FlowModFailedTableFull)
	}
	// The echoed body identifies the rejected flow.
	fm, err := ofp.DecodeFlowMod(em.Data)
	if err != nil {
		t.Fatalf("error reply does not echo a FlowMod: %v", err)
	}
	if v, _, ok := fm.Match.Get(openflow.FieldEthDst); !ok || v != 2 {
		t.Fatalf("error reply echoes the wrong flow: %+v", fm)
	}
	if agent.FlowModErrors() != 1 {
		t.Fatalf("agent counted %d flow-mod errors, want 1", agent.FlowModErrors())
	}

	// Replacing the installed entry still works (never counts against the
	// cap), and freeing the slot lets the rejected flow in.
	if err := ctrl.InstallFlow(0, 10, match(1), out); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.deleteFlow(0, 10, match(1)); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.InstallFlow(0, 10, match(2), out); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 1 {
		t.Fatalf("post-recovery installs raised errors: %d total", len(errs))
	}
}

// TestSupervisorBackoffsBounded: a supervisor that keeps failing to dial
// records only its first maxBackoffsRecorded delays, still BackoffSchedule's.
func TestSupervisorBackoffsBounded(t *testing.T) {
	cfg := SupervisorConfig{
		Dial:       func() (net.Conn, error) { return nil, errors.New("refused") },
		Agent:      NewAgent(emptyDatapath(t)),
		BackoffMin: time.Millisecond,
		BackoffMax: time.Millisecond,
		Seed:       1234,
	}
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	deadline := time.Now().Add(10 * time.Second)
	for sup.dialFailures.Load() <= maxBackoffsRecorded+8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d dial failures", sup.dialFailures.Load())
		}
		time.Sleep(time.Millisecond)
	}
	sup.Stop()
	got, want := sup.Backoffs(), BackoffSchedule(cfg, maxBackoffsRecorded)
	if len(got) != maxBackoffsRecorded {
		t.Fatalf("%d backoffs recorded over %d dial failures, want %d", len(got), sup.dialFailures.Load(), maxBackoffsRecorded)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, schedule says %v", i, got[i], want[i])
		}
	}
}

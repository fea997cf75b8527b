// Package faultinject is the deterministic fault-injection harness behind
// the chaos tests: a seeded Injector owns a set of named fault points, each
// governed by a Rule (fire after N passes, for M hits, with probability P
// from the seeded source), and thin wrappers thread those points through the
// places the failure plane must survive — the control connection (byte
// stream stalls, drops, per-message-type write faults) and the switch-side
// flow programmer (FlowMod application errors).  Everything is driven by
// explicit schedules plus a seeded PRNG, so a chaos run replays exactly from
// its seed.
package faultinject

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"eswitch/internal/openflow"
)

// Rule schedules one fault point.  The zero value never fires.
type Rule struct {
	// After suppresses the first After evaluations (a warm-up window).
	After int
	// Count caps how many times the point fires (0 = unlimited once past
	// After, for as long as Prob allows).
	Count int
	// Prob is the firing probability per evaluation once past After and
	// under Count; 0 means always fire (a deterministic schedule), values
	// in (0,1] draw from the injector's seeded source.
	Prob float64
	// Delay is slept before the wrapped operation proceeds when the point
	// fires (a stall fault).
	Delay time.Duration
	// Err, when non-nil, is returned by the wrapped operation when the
	// point fires (after Delay).
	Err error
	// Drop, for stream faults, swallows the operation: the write reports
	// success without transmitting (a silent black hole).  Ignored by
	// points whose operation has nothing to swallow.
	Drop bool
}

// outcome is one evaluated firing.
type outcome struct {
	fired bool
	delay time.Duration
	err   error
	drop  bool
}

// Injector evaluates named fault points against their rules with a seeded
// random source.  Safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]*ruleState
}

type ruleState struct {
	rule  Rule
	seen  int
	fired int
}

// New returns an injector whose probabilistic rules draw from the given
// seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]*ruleState),
	}
}

// Set installs (or replaces) the rule for a fault point, resetting its
// counters.
func (in *Injector) Set(point string, r Rule) {
	in.mu.Lock()
	in.rules[point] = &ruleState{rule: r}
	in.mu.Unlock()
}

// Fired returns how many times the point has fired.
func (in *Injector) Fired(point string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.rules[point]; st != nil {
		return st.fired
	}
	return 0
}

// eval runs one evaluation of the point under its rule.
func (in *Injector) eval(point string) outcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.rules[point]
	if st == nil {
		return outcome{}
	}
	st.seen++
	if st.seen <= st.rule.After {
		return outcome{}
	}
	if st.rule.Count > 0 && st.fired >= st.rule.Count {
		return outcome{}
	}
	if p := st.rule.Prob; p > 0 && in.rng.Float64() >= p {
		return outcome{}
	}
	st.fired++
	return outcome{fired: true, delay: st.rule.Delay, err: st.rule.Err, drop: st.rule.Drop}
}

// hit evaluates the point as a plain gate: it sleeps the rule's Delay and
// returns the rule's Err when the point fires, nil otherwise.  Wrappers
// without a stream to fault (the flow programmer's "flowmod.add") gate
// their operation with it.
func (in *Injector) hit(point string) error {
	o := in.eval(point)
	if !o.fired {
		return nil
	}
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	return o.err
}

// Conn wraps a control connection with fault points:
//
//	conn.read        — every Read
//	conn.write       — every Write
//	conn.write.<t>   — Writes whose first framed message has OpenFlow type t
//	                   (decimal, e.g. "conn.write.3" = EchoReply), evaluated
//	                   in addition to conn.write
//
// A firing read/write point stalls for the rule's Delay, then drops the
// operation (Drop: reads report a closed connection, writes report success
// without transmitting) or returns the rule's Err; the connection is left
// open either way, modelling a half-broken channel rather than a closed one.
func Conn(c net.Conn, in *Injector) net.Conn { return &faultConn{Conn: c, in: in} }

type faultConn struct {
	net.Conn
	in *Injector
}

func (c *faultConn) Read(p []byte) (int, error) {
	o := c.in.eval("conn.read")
	if o.fired {
		if o.delay > 0 {
			time.Sleep(o.delay)
		}
		if o.err != nil {
			return 0, o.err
		}
		if o.drop {
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	o := c.in.eval("conn.write")
	if !o.fired && len(p) >= 2 {
		// ofp framing: one Write per message, type in byte 1.
		o = c.in.eval(fmt.Sprintf("conn.write.%d", p[1]))
	}
	if o.fired {
		if o.delay > 0 {
			time.Sleep(o.delay)
		}
		if o.err != nil {
			return 0, o.err
		}
		if o.drop {
			return len(p), nil // black hole: claimed delivered, never sent
		}
	}
	return c.Conn.Write(p)
}

// programmer mirrors controller.FlowProgrammer structurally, so wrapping
// needs no controller import (and creates no cycle).
type programmer interface {
	AddFlow(table openflow.TableID, e *openflow.FlowEntry) error
	DeleteFlow(table openflow.TableID, match *openflow.Match, priority int) (int, error)
}

// Programmer wraps a flow programmer's AddFlow with the "flowmod.add" fault
// point: when it fires, the FlowMod is rejected with the rule's Err (after
// its Delay) without touching the datapath — the injected TABLE_FULL-style
// failure the controller-side error handling is tested against.  DeleteFlow
// passes through untouched.
type Programmer struct {
	p  programmer
	in *Injector
}

// WrapProgrammer threads the "flowmod.add" point through p.
func WrapProgrammer(p interface {
	AddFlow(table openflow.TableID, e *openflow.FlowEntry) error
	DeleteFlow(table openflow.TableID, match *openflow.Match, priority int) (int, error)
}, in *Injector) *Programmer {
	return &Programmer{p: p, in: in}
}

// AddFlow evaluates "flowmod.add", then delegates.
func (w *Programmer) AddFlow(table openflow.TableID, e *openflow.FlowEntry) error {
	if err := w.in.hit("flowmod.add"); err != nil {
		return err
	}
	return w.p.AddFlow(table, e)
}

// DeleteFlow delegates untouched.
func (w *Programmer) DeleteFlow(table openflow.TableID, match *openflow.Match, priority int) (int, error) {
	return w.p.DeleteFlow(table, match, priority)
}

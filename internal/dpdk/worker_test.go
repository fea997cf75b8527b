package dpdk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// A per-packet function is a whole Datapath: it is its own worker handle.
var _ Datapath = DatapathFunc(nil)

// TestPollOnceSteadyStateFunc pins the DatapathFunc worker — the path the
// OVS baseline takes — to the registered-worker contract: with punt rings
// and the punt-storm filter armed, after warm-up and across garbage
// collections, inject/poll/drain rounds allocate nothing and take no switch
// mutex.
func TestPollOnceSteadyStateFunc(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 1024, Queues: DefaultQueues})
	if _, err := sw.ArmPuntRings(64, 0); err != nil {
		t.Fatal(err)
	}
	sw.SetPuntFilter(64, 4)
	p1, _ := sw.Port(1)
	p2, _ := sw.Port(2)
	bld := pkt.NewBuilder(128)
	frames := make([][]byte, 256)
	for i := range frames {
		frames[i] = pkt.Clone(bld.UDPPacket(pkt.EthernetOpts{},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 0, 0, byte(i)), Dst: pkt.IPv4FromOctets(10, 9, 9, 9)},
			pkt.L4Opts{Src: uint16(1000 + i), Dst: 53}))
	}
	round := func() {
		for _, f := range frames {
			p1.InjectOn(AutoQueue, f)
		}
		for sw.PollOnce(nil) > 0 {
		}
		p2.DrainTx()
	}
	for i := 0; i < 4; i++ {
		round()
	}
	// One P for the window, as testing.AllocsPerRun does, so allocations
	// another goroutine makes meanwhile stay out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	locked := sw.MutexOps()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; !raceEnabled && n != 0 {
		t.Fatalf("100 PollOnce rounds allocated %d times", n)
	}
	if got := sw.MutexOps(); got != locked {
		t.Fatalf("switch mutex acquired %d times under PollOnce", got-locked)
	}
	if st := sw.Stats(); st.Forwarded != 104*uint64(len(frames)) {
		t.Fatalf("forwarded %d, want %d", st.Forwarded, 104*len(frames))
	}
}

// countingDatapath is a Datapath test double that records every handle it
// registers and every handle returned to it.
type countingDatapath struct {
	DatapathFunc
	mu      sync.Mutex
	handles []*countingWorker
}

// countingWorker counts its Enter/Exit brackets and unregistrations; the
// embedded DatapathFunc classifies.
type countingWorker struct {
	DatapathFunc
	enters, exits, unregs atomic.Int64
}

func (w *countingWorker) Enter() { w.enters.Add(1) }
func (w *countingWorker) Exit()  { w.exits.Add(1) }

func (d *countingDatapath) RegisterWorker() Worker {
	w := &countingWorker{DatapathFunc: d.DatapathFunc}
	d.mu.Lock()
	d.handles = append(d.handles, w)
	d.mu.Unlock()
	return w
}

func (d *countingDatapath) UnregisterWorker(w Worker) { w.(*countingWorker).unregs.Add(1) }

func (d *countingDatapath) registered() []*countingWorker {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*countingWorker(nil), d.handles...)
}

// TestWorkerRegistrationPairing checks the registration contract every
// datapath sees: PollOnce registers one handle however often it polls,
// RunWorkers(n) registers n and unregisters all n on stop, and every
// handle's Enter/Exit calls balance — across a contained panic too.
func TestWorkerRegistrationPairing(t *testing.T) {
	poison := DatapathFunc(func(p *pkt.Packet, v *openflow.Verdict) {
		if p.Data[0] == 0xFF {
			panic("poison frame")
		}
		echoDatapath(p, v)
	})
	good := make([]byte, pkt.MinPacketLen)
	bad := make([]byte, pkt.MinPacketLen)
	bad[0] = 0xFF
	balanced := func(t *testing.T, w *countingWorker) {
		t.Helper()
		if e, x := w.enters.Load(), w.exits.Load(); e == 0 || e != x {
			t.Fatalf("handle bracketed %d Enter / %d Exit calls", e, x)
		}
	}

	t.Run("PollOnce", func(t *testing.T) {
		dp := &countingDatapath{DatapathFunc: poison}
		sw := NewSwitchWithConfig(dp, SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 2})
		p1, _ := sw.Port(1)
		const polls = 10
		for i := 0; i < polls; i++ {
			p1.InjectOn(0, good)
			if i == polls/2 {
				p1.InjectOn(1, bad)
			}
			sw.PollOnce(nil)
		}
		hs := dp.registered()
		if len(hs) != 1 {
			t.Fatalf("%d polls registered %d handles, want 1", polls, len(hs))
		}
		balanced(t, hs[0])
		if n := hs[0].enters.Load(); n != polls {
			t.Fatalf("%d polls entered the handle %d times", polls, n)
		}
		if st := sw.Stats(); st.Panics != 1 || st.Quarantined != 1 || st.Forwarded != polls {
			t.Fatalf("stats %+v, want 1 panic, 1 quarantined, %d forwarded", st, polls)
		}
	})

	t.Run("RunWorkers", func(t *testing.T) {
		dp := &countingDatapath{DatapathFunc: poison}
		sw := NewSwitchWithConfig(dp, SwitchConfig{NumPorts: 2, RingSize: 256, Queues: 4})
		const workers = 3
		stop := sw.RunWorkers(workers)
		p1, _ := sw.Port(1)
		const frames = 100
		for i := 0; i < frames; i++ {
			p1.InjectOn(i%4, good)
		}
		p1.InjectOn(0, bad)
		waitFor(t, 5*time.Second, func() bool {
			st := sw.Stats()
			return st.Processed == frames+1 && st.Panics == 1
		}, "workers never processed the traffic and contained the panic")
		stop()
		hs := dp.registered()
		if len(hs) != workers {
			t.Fatalf("RunWorkers(%d) registered %d handles", workers, len(hs))
		}
		for i, w := range hs {
			if n := w.unregs.Load(); n != 1 {
				t.Fatalf("handle %d unregistered %d times, want 1", i, n)
			}
			balanced(t, w)
		}
	})
}

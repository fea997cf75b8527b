package core

import (
	"testing"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// Lifecycle-plane acceptance tests: idle and hard timeouts expire lazily on
// the sweeper's clock (idle activity observed through the per-entry packet
// counters), soft-limit eviction sheds the least-recently-active entries, and
// every removal goes through the ordinary generation-bumping update path.

// sweepDatapath compiles a single-table pipeline with per-entry counters on
// (the sweeper's idle detector reads them) and a drop catch-all.
func sweepDatapath(t *testing.T) *Datapath {
	t.Helper()
	pl := openflow.NewPipeline(4)
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	opts := DefaultOptions()
	opts.UpdateCounters = true
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

func srcEntry(src uint32, out uint32) *openflow.FlowEntry {
	return openflow.NewEntry(10,
		openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(src)),
		openflow.Apply(openflow.Output(out)))
}

func sendSrc(t *testing.T, dp *Datapath, src uint32) openflow.Verdict {
	t.Helper()
	b := pkt.NewBuilder(128)
	p := pkt.Packet{
		Data:   pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: pkt.IPv4(src), Dst: 0x0a000099}, pkt.L4Opts{Src: 1, Dst: 80})),
		InPort: 1,
	}
	var v openflow.Verdict
	dp.Process(&p, &v)
	return v
}

func TestSweeperIdleAndHardTimeouts(t *testing.T) {
	dp := sweepDatapath(t)

	idle := srcEntry(1, 2)
	idle.IdleTimeout = 3
	if err := dp.AddFlow(0, idle); err != nil {
		t.Fatal(err)
	}
	hard := srcEntry(2, 2)
	hard.HardTimeout = 5
	if err := dp.AddFlow(0, hard); err != nil {
		t.Fatal(err)
	}
	forever := srcEntry(3, 2)
	if err := dp.AddFlow(0, forever); err != nil {
		t.Fatal(err)
	}

	now := time.Unix(1000, 0)
	var removed []RemovedFlow
	s := NewSweeper(dp, SweeperConfig{
		Now:       func() time.Time { return now },
		OnRemoved: func(rf RemovedFlow) { removed = append(removed, rf) },
	})

	// t=0: everything registers, nothing expires.
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("sweep at install time removed %d entries", n)
	}

	// t=2: traffic on the idle entry refreshes its activity.
	now = now.Add(2 * time.Second)
	if v := sendSrc(t, dp, 1); len(v.OutPorts) != 1 || v.OutPorts[0] != 2 {
		t.Fatalf("idle-timeout entry not forwarding: %s", v.String())
	}
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("sweep at t=2 removed %d entries", n)
	}

	// t=4: idle entry last active at t=2 (2s < 3s), hard entry at 4s < 5s.
	now = now.Add(2 * time.Second)
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("sweep at t=4 removed %d entries", n)
	}

	// t=6: idle entry idle for 4s >= 3s, hard entry installed 6s >= 5s ago.
	now = now.Add(2 * time.Second)
	if n := s.SweepOnce(); n != 2 {
		t.Fatalf("sweep at t=6 removed %d entries, want 2", n)
	}
	if len(removed) != 2 {
		t.Fatalf("OnRemoved saw %d removals, want 2", len(removed))
	}
	reasons := map[uint8]int{}
	for _, rf := range removed {
		reasons[rf.Reason]++
		if rf.Table != 0 {
			t.Fatalf("removal reported table %d", rf.Table)
		}
		if rf.Duration != 6*time.Second {
			t.Fatalf("removal reported duration %s, want 6s", rf.Duration)
		}
	}
	if reasons[RemovedIdleTimeout] != 1 || reasons[RemovedHardTimeout] != 1 {
		t.Fatalf("wrong removal reasons: %v", reasons)
	}
	for _, rf := range removed {
		if rf.Reason == RemovedIdleTimeout && rf.Packets != 1 {
			t.Fatalf("idle removal carried %d packets, want the 1 it forwarded", rf.Packets)
		}
	}

	// The expired entries are gone from the datapath (fresh packets drop);
	// the timeout-free entry survives.
	if v := sendSrc(t, dp, 1); !v.Dropped {
		t.Fatalf("expired idle entry still forwarding: %s", v.String())
	}
	if v := sendSrc(t, dp, 2); !v.Dropped {
		t.Fatalf("expired hard entry still forwarding: %s", v.String())
	}
	if v := sendSrc(t, dp, 3); len(v.OutPorts) != 1 {
		t.Fatalf("timeout-free entry expired: %s", v.String())
	}

	// Idle expiry keeps being driven by activity: a replacement entry starts
	// a fresh lifecycle clock.
	idle2 := srcEntry(1, 3)
	idle2.IdleTimeout = 3
	if err := dp.AddFlow(0, idle2); err != nil {
		t.Fatal(err)
	}
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("fresh replacement expired immediately (%d removed)", n)
	}
}

// TestSweeperSeesBurstTraffic keeps an entry alive on traffic that arrives
// through the facade's ProcessBurst, whose pinned workers hold their counter
// deltas until something folds them.
func TestSweeperSeesBurstTraffic(t *testing.T) {
	dp := sweepDatapath(t)
	idle := srcEntry(1, 2)
	idle.IdleTimeout = 3
	if err := dp.AddFlow(0, idle); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	s := NewSweeper(dp, SweeperConfig{Now: func() time.Time { return now }})
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 1, Dst: 0x0a000099}, pkt.L4Opts{Src: 1, Dst: 80}))
	ps := []*pkt.Packet{{InPort: 1}}
	vs := make([]openflow.Verdict, 1)
	for sweep := 0; sweep < 5; sweep++ {
		if n := s.SweepOnce(); n != 0 {
			t.Fatalf("sweep %d at t=%ds removed %d entries of a flow with traffic every 2s", sweep, 2*sweep, n)
		}
		now = now.Add(2 * time.Second)
		ps[0].Data = append(ps[0].Data[:0], frame...)
		dp.ProcessBurst(ps, vs)
		if len(vs[0].OutPorts) != 1 || vs[0].OutPorts[0] != 2 {
			t.Fatalf("idle-timeout entry not forwarding: %s", vs[0].String())
		}
	}
}

func TestSweeperSoftLimitEviction(t *testing.T) {
	dp := sweepDatapath(t)
	now := time.Unix(2000, 0)
	var removed []RemovedFlow
	s := NewSweeper(dp, SweeperConfig{
		SoftLimit: 5, // the catch-all counts too: 4 flows + 1 catch-all
		Now:       func() time.Time { return now },
		OnRemoved: func(rf RemovedFlow) { removed = append(removed, rf) },
	})

	// Four flows fit under the limit.
	for src := uint32(1); src <= 4; src++ {
		if err := dp.AddFlow(0, srcEntry(src, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("under-limit sweep evicted %d entries", n)
	}

	// Later: sources 3 and 4 stay active, 1 and 2 go quiet, and two more
	// flows arrive, pushing the table two over the soft limit.
	now = now.Add(10 * time.Second)
	sendSrc(t, dp, 3)
	sendSrc(t, dp, 4)
	sendSrc(t, dp, 99) // unmatched source keeps the catch-all's counter moving
	for src := uint32(5); src <= 6; src++ {
		if err := dp.AddFlow(0, srcEntry(src, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.SweepOnce(); n != 2 {
		t.Fatalf("over-limit sweep evicted %d entries, want 2", n)
	}
	if len(removed) != 2 {
		t.Fatalf("OnRemoved saw %d evictions, want 2", len(removed))
	}
	evictedSrc := map[uint64]bool{}
	for _, rf := range removed {
		if rf.Reason != RemovedEviction {
			t.Fatalf("eviction reported reason %d", rf.Reason)
		}
		v, _, _ := rf.Match.Get(openflow.FieldIPSrc)
		evictedSrc[v] = true
	}
	// The least-recently-active entries — the quiet sources 1 and 2 — go
	// first; the active and the fresh ones survive.
	if !evictedSrc[1] || !evictedSrc[2] {
		t.Fatalf("evicted the wrong entries: %v", evictedSrc)
	}
	if v := sendSrc(t, dp, 3); len(v.OutPorts) != 1 {
		t.Fatal("active entry evicted")
	}
	if v := sendSrc(t, dp, 6); len(v.OutPorts) != 1 {
		t.Fatal("fresh entry evicted")
	}
	if got := dp.Pipeline().Table(0).Len(); got != 5 {
		t.Fatalf("table holds %d entries after eviction, want 5", got)
	}
}

// TestDecomposedModsKeepCountersAndTimeouts runs the lifecycle plane on a
// decomposed ACL with per-entry counters on.  Every flow-mod recompiles the
// decomposed datapath, yet the source entries the mod left must keep their
// counters (a packet that matches a derived entry counts on the source entry
// it came from) and their sweeper clocks, and an expiry must delete the
// source entry the sweeper saw.
func TestDecomposedModsKeepCountersAndTimeouts(t *testing.T) {
	uc := decomposedACL()
	opts := DefaultOptions()
	opts.Decompose = true
	opts.UpdateCounters = true
	src := uc.Pipeline
	// The entry each frame matches in the source, and which entries traffic
	// reaches at all.
	tr := uc.Trace(200)
	hitOf := make([]int, 200)
	var hot []int
	hits := map[int]int{}
	for i := range hitOf {
		frame, port := tr.Frame(i)
		q := &pkt.Packet{Data: frame, InPort: port}
		pkt.ParseTo(q, pkt.LayerL4)
		e := src.Table(0).Lookup(q, nil)
		for j, c := range src.Table(0).Entries() {
			if c == e {
				hitOf[i] = j
			}
		}
		if hits[hitOf[i]]++; hits[hitOf[i]] == 1 && e.Priority > 0 {
			hot = append(hot, hitOf[i])
		}
	}
	if len(hot) < 2 {
		t.Fatalf("the trace reaches %d ACL rules, want 2", len(hot))
	}
	idle, hard := hot[0], hot[1]
	src.Table(0).Entries()[idle].IdleTimeout = 5
	src.Table(0).Entries()[hard].HardTimeout = 9
	dp, err := Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dp.DecomposedTables() == 0 {
		t.Fatal("the ACL did not decompose")
	}
	now := time.Unix(3000, 0)
	var removed []RemovedFlow
	s := NewSweeper(dp, SweeperConfig{
		Now:       func() time.Time { return now },
		OnRemoved: func(rf RemovedFlow) { removed = append(removed, rf) },
	})
	want := make([]uint64, src.Table(0).Len())
	send := func(skip int) {
		for i := range hitOf {
			if hitOf[i] == skip {
				continue
			}
			frame, port := tr.Frame(i)
			var v openflow.Verdict
			dp.Process(&pkt.Packet{Data: append([]byte(nil), frame...), InPort: port}, &v)
			want[hitOf[i]]++
		}
	}
	// The samples are the source's entries, each carrying the packets that
	// matched it; extra counts the entries the mods added.
	checkCounts := func(when string, extra int) {
		t.Helper()
		got := dp.FlowSamples(nil)
		if len(got) != len(want)+extra {
			t.Fatalf("%s: %d flow samples, the source holds %d entries", when, len(got), len(want)+extra)
		}
		for _, fs := range got {
			var w uint64
			for j, e := range src.Table(0).Entries() {
				if e.Priority == fs.Priority && e.Match.Equal(fs.Match) {
					w = want[j]
				}
			}
			if fs.Table != 0 || fs.Packets != w {
				t.Fatalf("%s: the sample of table %d, priority %d, %v counted %d packets, want %d", when, fs.Table, fs.Priority, fs.Match, fs.Packets, w)
			}
		}
	}
	other := openflow.NewEntry(2, openflow.NewMatch().Set(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(198, 51, 100, 1))),
		openflow.Apply(openflow.Output(2)))

	// t=0: every entry registers; traffic reaches both timed entries.
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("sweep at install time removed %d entries", n)
	}
	send(-1)
	checkCounts("after the first pass", 0)
	// t=4: the idle entry was active since the last sweep; a mod recompiles
	// the datapath and the counters stay.
	now = now.Add(4 * time.Second)
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("sweep at t=4 removed %d entries", n)
	}
	if err := dp.AddFlow(0, other); err != nil {
		t.Fatal(err)
	}
	checkCounts("after an add", 1)
	// t=6: traffic everywhere but the idle entry, and a second mod.
	now = now.Add(2 * time.Second)
	send(idle)
	if n, err := dp.DeleteFlow(0, other.Match, other.Priority); n != 1 || err != nil {
		t.Fatalf("delete removed %d (%v)", n, err)
	}
	checkCounts("after a delete", 0)
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("sweep at t=6 removed %d entries", n)
	}
	// t=9: the idle entry last moved at t=4, the hard entry was installed
	// at t=0; neither clock restarted at a mod.
	now = now.Add(3 * time.Second)
	if n := s.SweepOnce(); n != 2 {
		t.Fatalf("sweep at t=9 removed %d entries, want 2", n)
	}
	for _, rf := range removed {
		j := idle
		if rf.Reason == RemovedHardTimeout {
			j = hard
		}
		e := src.Table(0).Entries()[j]
		if rf.Table != 0 || rf.Priority != e.Priority || !rf.Match.Equal(e.Match) || rf.Packets != want[j] || rf.Duration != 9*time.Second {
			t.Fatalf("removal %+v, want table 0, the entry at priority %d with %d packets after 9s", rf, e.Priority, want[j])
		}
	}
	// The expiries deleted those entries from the source: the datapath
	// forwards as the interpreter does over the source without them.
	ref := src.Clone()
	for _, j := range []int{idle, hard} {
		e := src.Table(0).Entries()[j]
		ref.Table(0).Delete(e.Match, e.Priority)
	}
	in := openflow.NewInterpreter(ref)
	in.UpdateCounters = false
	for i := range hitOf {
		frame, port := tr.Frame(i)
		var got, exp openflow.Verdict
		dp.Process(&pkt.Packet{Data: append([]byte(nil), frame...), InPort: port}, &got)
		in.Process(&pkt.Packet{Data: frame, InPort: port}, &exp, nil)
		if !got.Equivalent(&exp) {
			t.Fatalf("frame %d after the expiries: datapath %s, interpreter %s", i, &got, &exp)
		}
	}
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// The concurrency acceptance test of the multi-queue dataplane refactor:
// workers forward bursts through the lock-free path (registered worker
// handles) while the writer hammers AddFlow/DeleteFlow on the
// same tables.  Run under -race this exercises the in-place updates; the
// verdict assertions check that no burst ever observes a torn table or a
// retired verdict (every verdict is the interpreter's under the pipeline as
// it stood before or after a flow-mod in flight during the burst) and that
// verdicts converge to the final configuration once updates stop.

const (
	ccStablePort  = 2
	ccFlapPort    = 3
	ccStableDst   = 0xcb007100 // 203.0.113.0, inside the stable /16
	ccAliasDst    = 0xcb007181 // 203.0.113.129: ccStableDst's /24, the flapping /25
	ccFlapDst     = 0xcb00ca01 // 203.0.202.1, inside the flapping /24's /16
	ccFlapSrcBase = 0x0a000060
)

func ccPipeline() *openflow.Pipeline {
	pl := openflow.NewPipeline(4)
	// Table 0: compound hash over the exact source address; known sources
	// continue to routing, everything else is dropped by the catch-all.
	for i := 0; i < 32; i++ {
		pl.Table(0).AddFlow(10,
			openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(0x0a000001+i)),
			openflow.Goto(1))
	}
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	// Table 1: LPM routing over the destination address (enough prefixes
	// that the analysis picks the LPM template over direct code).
	pl.AddTable(1)
	for i := 0; i < 8; i++ {
		pl.Table(1).AddFlow(16,
			openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(0xcb000000+uint32(i)<<16), 16),
			openflow.Apply(openflow.Output(ccStablePort)))
	}
	// A longer stable prefix (same egress) mixes the mask set so the
	// analysis selects LPM rather than the compound hash.
	pl.Table(1).AddFlow(24,
		openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0xcb007100, 24),
		openflow.Apply(openflow.Output(ccStablePort)))
	pl.Table(1).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	return pl
}

func ccFrame(src, dst uint32, sport uint16) []byte {
	b := pkt.NewBuilder(128)
	return pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
		pkt.IPv4Opts{Src: pkt.IPv4(src), Dst: pkt.IPv4(dst)},
		pkt.L4Opts{Src: sport, Dst: 80}))
}

func TestConcurrentFlowModsUnderBurstTraffic(t *testing.T) {
	runConcurrentFlowMods(t, 0)
}

// TestConcurrentFlowModsFlowCache is the flowcache acceptance variant: the
// same AddFlow/DeleteFlow storm, but every worker forwards through its
// registered handle's ProcessBurst with a private verdict cache, keyed on
// (ip_src, ip_dst/24) — what the two stages read — in front of the compiled
// pipeline, until the storm's first /25 widens the key under traffic: frames
// that differ only in the destination's low byte are one entry before it and
// two after, and each burst spans several sub-bursts, so an entry memoized
// from the new table under the old key would be served to its alias within
// the same call.  The oracle-window assertions prove no burst is ever
// served a verdict retired before the worker's current epoch entry — neither
// from an entry of the current generation nor from one revalidated against
// the mods since — and the convergence check proves the caches drain to the
// final configuration once updates stop.
func TestConcurrentFlowModsFlowCache(t *testing.T) {
	runConcurrentFlowMods(t, 8192)
}

func runConcurrentFlowMods(t *testing.T, flowCache int) {
	opts := DefaultOptions()
	opts.FlowCache = flowCache
	dp, err := Compile(ccPipeline(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := dp.TableTemplate(0); k != TemplateHash {
		t.Fatalf("table 0 compiled to %v, want compound hash", k)
	}
	if k, _ := dp.TableTemplate(1); k != TemplateLPM {
		t.Fatalf("table 1 compiled to %v, want LPM", k)
	}
	if dp.FlowCacheEnabled() != (flowCache > 0) {
		t.Fatalf("two-stage pipeline compiled with FlowCache=%d: armed=%v", flowCache, dp.FlowCacheEnabled())
	}

	// The burst each worker replays: stable flows (always ccStablePort),
	// flows into the flapping /24 route (ccStablePort while it is absent,
	// ccFlapPort while present), flows from the flapping table-0 sources
	// (forwarded while their entry is present, dropped otherwise), and the
	// stable flows' aliases under a /24 key, inside the flapping /25.  Every
	// source comes round twice, so the burst is longer than MaxBurst and a
	// stable flow of the last sub-burst has its alias in the first.
	var frames [][]byte
	for i := 0; i < 24; i++ {
		src := uint32(0x0a000001 + i%12)
		frames = append(frames,
			ccFrame(src, ccStableDst, uint16(1000+i)),
			ccFrame(src, ccFlapDst, uint16(2000+i)),
			ccFrame(uint32(ccFlapSrcBase+i%4), ccStableDst, uint16(3000+i)),
			ccFrame(src, ccAliasDst, uint16(4000+i)))
	}
	if len(frames) <= MaxBurst {
		t.Fatalf("%d frames are one sub-burst", len(frames))
	}

	// The writer's flow-mods, one period of twelve: the route, the four
	// sources and the /25 come, then go.  After k mods the pipeline is in
	// state k%12.  The /25's first arrival is the one mod that widens the
	// cache key; afterwards it is a scoped mod like the others.
	flapRoute := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0xcb00ca00, 24)
	flapHalf := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, ccAliasDst&^0x7f, 25)
	flapSrc := func(i int) *openflow.Match {
		return openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(ccFlapSrcBase+i))
	}
	type ccMod struct {
		table    openflow.TableID
		add      *openflow.FlowEntry // nil: delete (match, priority)
		match    *openflow.Match
		priority int
	}
	var period []ccMod
	period = append(period, ccMod{table: 1, add: openflow.NewEntry(24, flapRoute, openflow.Apply(openflow.Output(ccFlapPort)))})
	for i := 0; i < 4; i++ {
		period = append(period, ccMod{table: 0, add: openflow.NewEntry(10, flapSrc(i), openflow.Goto(1))})
	}
	period = append(period, ccMod{table: 1, add: openflow.NewEntry(25, flapHalf, openflow.Apply(openflow.Output(ccFlapPort)))})
	period = append(period, ccMod{table: 1, match: flapRoute, priority: 24})
	for i := 0; i < 4; i++ {
		period = append(period, ccMod{table: 0, match: flapSrc(i), priority: 10})
	}
	period = append(period, ccMod{table: 1, match: flapHalf, priority: 25})
	// oracle[s][i] is the interpreter's egress port for frame i in state s
	// (0 = dropped; the pipeline neither punts nor floods).
	oracle := make([][]uint32, len(period))
	{
		pl := ccPipeline()
		in := openflow.NewInterpreter(pl)
		for s, m := range period {
			oracle[s] = make([]uint32, len(frames))
			for i, f := range frames {
				var v openflow.Verdict
				in.Process(&pkt.Packet{Data: f, InPort: 1}, &v, nil)
				if len(v.OutPorts) == 1 {
					oracle[s][i] = v.OutPorts[0]
				}
			}
			if m.add != nil {
				pl.Table(m.table).Add(m.add.Clone())
			} else {
				pl.Table(m.table).Delete(m.match, m.priority)
			}
		}
	}
	// started counts the mods the writer has begun, applied those that have
	// returned: a burst bracketed by applied=lo before and started=hi after
	// ran under the pipeline of some state in [lo, hi].
	// bursts counts checked bursts; the writer lets one complete between
	// mods so the storm interleaves with forwarding instead of outrunning it
	// (which would put every state in every window).
	var started, applied, bursts atomic.Int64

	const workers = 3
	done := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := dp.RegisterWorker()
			defer dp.UnregisterWorker(e)
			n := len(frames)
			packets := make([]pkt.Packet, n)
			ps := make([]*pkt.Packet, n)
			vs := make([]openflow.Verdict, n)
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := range packets {
					packets[i] = pkt.Packet{Data: frames[i], InPort: 1}
					ps[i] = &packets[i]
				}
				lo := applied.Load()
				// The handle path: worker-local scratch and, when armed,
				// microflow cache.
				e.Enter()
				e.ProcessBurst(ps, vs)
				e.Exit()
				hi := started.Load()
				// Yield between bursts: on machines with fewer cores
				// than workers this keeps the scheduler rotating the
				// way truly parallel per-core workers would.
				runtime.Gosched()
				if hi-lo >= int64(len(period)) {
					hi = lo + int64(len(period)) - 1 // every state is in the window
				}
				for i := range vs {
					v := &vs[i]
					got := uint32(0)
					if len(v.OutPorts) == 1 {
						got = v.OutPorts[0]
					}
					ok := false
					for k := lo; k <= hi && !ok; k++ {
						ok = got == oracle[k%int64(len(period))][i]
					}
					if !ok || len(v.OutPorts) > 1 || v.ToController || (got == 0) != v.Dropped {
						errs <- fmt.Errorf("worker %d: frame %d: verdict %v is the oracle's under none of the states %d..%d",
							w, i, v, lo, hi)
						return
					}
				}
				bursts.Add(1)
			}
		}(w)
	}

	// Writer: flap an LPM /24 route, a /25 and a batch of table-0 hash entries.
	const rounds = 75
	for r := 0; r < rounds*len(period); r++ {
		m := period[r%len(period)]
		started.Add(1)
		var err error
		if m.add != nil {
			err = dp.AddFlow(m.table, m.add.Clone())
		} else {
			_, err = dp.DeleteFlow(m.table, m.match.Clone(), m.priority)
		}
		if err != nil {
			t.Fatal(err)
		}
		applied.Add(1)
		// A reading taken while bursts are in flight still has to respect
		// the counters' subset relations (publish order in bump, read order
		// in Stats).
		if flowCache > 0 {
			st := dp.FlowCacheStats()
			if st.Revalidated > st.Hits || st.Expired > st.Stale || st.Stale > st.Misses {
				close(done)
				wg.Wait()
				t.Fatalf("mid-burst reading breaks a subset relation: %+v", st)
			}
		}
		for seen := bursts.Load(); bursts.Load() == seen && len(errs) == 0; {
			runtime.Gosched()
		}
		select {
		case err := <-errs:
			close(done)
			wg.Wait()
			t.Fatal(err)
		default:
		}
	}
	if flowCache > 0 {
		// Quiesce updates briefly so the workers forward whole bursts within
		// one generation (cache hits), then retire every memoized verdict
		// with one more flow-mod and let them forward again: the re-probes
		// must surface stale sightings, never stale verdicts.
		time.Sleep(10 * time.Millisecond)
		if err := dp.AddFlow(0, openflow.NewEntry(10,
			openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(ccFlapSrcBase+100)),
			openflow.Goto(1))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if dp.IncrementalUpdates() == 0 {
		t.Fatal("expected incremental (in-place) updates to be exercised")
	}
	if flowCache > 0 {
		st := dp.FlowCacheStats()
		if st.Hits == 0 {
			t.Fatal("flowcache run produced no cache hits")
		}
		if st.Stale == 0 {
			t.Fatal("the flow-mod storm produced no stale-generation sightings")
		}
		if key, _ := dp.FlowCacheKey(); key != "ip_src/32 ip_dst/25" || st.Flushes != 1 {
			t.Fatalf("the first /25 is the storm's one barrier: key %q, %+v", key, st)
		}
		if st.Revalidated == 0 {
			t.Fatal("a storm of flow-mods, most of them beside the stable flows, and no probe was revalidated")
		}
	}

	// Convergence: with updates quiesced, every verdict must match the
	// interpreter over the final declarative pipeline.  With the cache on
	// this also goes through a pinned facade worker's cache, whose entries
	// from mid-storm generations must all read as stale.
	interp := openflow.NewInterpreter(dp.Pipeline())
	n := len(frames)
	packets := make([]pkt.Packet, n)
	ps := make([]*pkt.Packet, n)
	vs := make([]openflow.Verdict, n)
	for i := range packets {
		packets[i] = pkt.Packet{Data: frames[i], InPort: 1}
		ps[i] = &packets[i]
	}
	dp.ProcessBurst(ps, vs)
	for i := range vs {
		var want openflow.Verdict
		p := pkt.Packet{Data: frames[i], InPort: 1}
		interp.Process(&p, &want, nil)
		if !vs[i].Equivalent(&want) {
			t.Fatalf("packet %d did not converge: got %v want %v", i, &vs[i], &want)
		}
	}
}

// TestFacadeProcessConcurrentWithUpdates checks the safe-by-default entry
// points: anonymous Process/ProcessBurst callers pin a recycled epoch, so
// they may run concurrently with flow-mods without any external quiescence.
func TestFacadeProcessConcurrentWithUpdates(t *testing.T) {
	dp, err := Compile(ccPipeline(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frame := ccFrame(0x0a000001, ccStableDst, 999)
		var v openflow.Verdict
		for {
			select {
			case <-done:
				return
			default:
			}
			p := pkt.Packet{Data: frame, InPort: 1}
			dp.Process(&p, &v)
			if !(len(v.OutPorts) == 1 && v.OutPorts[0] == ccStablePort) {
				panic(fmt.Sprintf("unexpected verdict %v", &v))
			}
		}
	}()
	m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0xcb00ca00, 24)
	for r := 0; r < 200; r++ {
		if r%2 == 0 {
			if err := dp.AddFlow(1, openflow.NewEntry(24, m.Clone(),
				openflow.Apply(openflow.Output(ccFlapPort)))); err != nil {
				t.Fatal(err)
			}
		} else if _, err := dp.DeleteFlow(1, m.Clone(), 24); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

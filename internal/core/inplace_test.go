package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// ipFlap* shape the pipeline of the in-place update tests: table 0 is a
// compound hash on eth_dst whose flapping stations leave on their own ports
// and whose other traffic goes on to table 1, an LPM RIB of eight covering
// /16s, sixteen flapping /24s and sixteen flapping /26s (each /26 takes a
// group of the DIR-24-8 second level while it is installed), beside one
// stable /24.  Every entry
// has its own port, so a verdict read through a half-built or reused group,
// lane or value slot names a port no state of the pipeline gives the frame.
const (
	ipStations = 16
	ipSlash24s = 16
)

func ipStation(j int) uint64 { return 0x020000f00000 + uint64(j) }

// ipStationDst is the destination address of station j's frames.
func ipStationDst(j int) pkt.IPv4 { return pkt.IPv4FromOctets(10, byte(j%8), byte(j/8), 70) }

// stationKey is the match of table 0's keyed band in the in-place tests,
// given a station's MAC and the destination address of its frames.
type stationKey func(mac uint64, dst pkt.IPv4) *openflow.Match

// ethDstKey is table 0's usual key: eth_dst, one word.
func ethDstKey(mac uint64, _ pkt.IPv4) *openflow.Match {
	return openflow.NewMatch().Set(openflow.FieldEthDst, mac)
}

// stationKeys are table 0's keys at each of the cuckoo table's widths: the
// MAC alone and a five-tuple (every frame is TCP from 10.9.9.9:1000 to port
// 80), whose three layout words are stored in four.
var stationKeys = []struct {
	name  string
	key   stationKey
	width int
}{
	{"eth_dst", ethDstKey, 1},
	{"five-tuple", func(_ uint64, dst pkt.IPv4) *openflow.Match {
		return openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(pkt.IPv4FromOctets(10, 9, 9, 9))).Set(openflow.FieldIPDst, uint64(dst)).
			Set(openflow.FieldIPProto, 6).Set(openflow.FieldTCPSrc, 1000).Set(openflow.FieldTCPDst, 80)
	}, 4},
}

func ipRoute(k int) (*openflow.Match, int, uint32) {
	x, y := byte(k/2%8), byte(k%2)
	if k < ipSlash24s {
		return openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, x, y, 0)), 24), 24, uint32(9 + k)
	}
	return openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, x, y, 64)), 26), 26, uint32(9 + k)
}

func ipPipeline() *openflow.Pipeline { return ipPipelineKeyed(ethDstKey) }

// ipPipelineKeyed is ipPipeline with table 0 keyed by key; its 32 standing
// entries' addresses, 10.100.0.0/27, are no frame's.
func ipPipelineKeyed(key stationKey) *openflow.Pipeline {
	pl := openflow.NewPipeline(64)
	for i := 0; i < 32; i++ {
		pl.Table(0).AddFlow(100, key(0x020000000100+uint64(i), pkt.IPv4FromOctets(10, 100, 0, byte(i))), openflow.Goto(1))
	}
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Goto(1))
	pl.AddTable(1)
	for x := byte(0); x < 8; x++ {
		pl.Table(1).AddFlow(16, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, x, 0, 0)), 16),
			openflow.Apply(openflow.Output(uint32(1+x))))
	}
	// A stable /24 mixes the masks, so the analysis picks LPM.
	pl.Table(1).AddFlow(24, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, 0, 2, 0)), 24),
		openflow.Apply(openflow.Output(42)))
	pl.Table(1).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	return pl
}

// ipTailPort is the port table 0's catch-all sends frames to while it is
// flipped from its goto.
const ipTailPort = 47

// ipMod is the k-th flow-mod of the tests' seeded sequence, which toggles a
// station, keyed by key, or a route, or flips table 0's catch-all between
// its goto and ipTailPort: present is the pipeline's state before it.
func ipMod(rng *rand.Rand, present map[int]bool, key stationKey) (table openflow.TableID, e *openflow.FlowEntry, m *openflow.Match, prio int) {
	k := rng.Intn(ipStations + 2*ipSlash24s + 1)
	if k == ipStations+2*ipSlash24s { // the catch-all, replaced in place
		ins := openflow.Apply(openflow.Output(ipTailPort))
		if present[k] {
			ins = openflow.Goto(1)
		}
		present[k] = !present[k]
		m = openflow.NewMatch()
		return 0, openflow.NewEntry(0, m, ins), m, 0
	}
	if k < ipStations {
		table, prio = 0, 100
		m = key(ipStation(k), ipStationDst(k))
		e = openflow.NewEntry(prio, m, openflow.Apply(openflow.Output(uint32(48+k))))
	} else {
		var port uint32
		table = 1
		m, prio, port = ipRoute(k - ipStations)
		e = openflow.NewEntry(prio, m, openflow.Apply(openflow.Output(port)))
	}
	if present[k] {
		e = nil
	}
	present[k] = !present[k]
	return table, e, m, prio
}

// TestInPlaceModsUnderTraffic runs two forwarding workers' bursts against a
// writer that adds and deletes stations in the compound hash, replaces its
// catch-all (the direct-code tail a probe miss runs), and adds and deletes
// /24 and /26 routes in the LPM table, applied in place, once for each of
// table 0's stationKeys, so every key width of the cuckoo table takes the
// mods.  Each table a packet visits must answer as the interpreter's does
// for that table before or after a mod in flight: the verdict must be the
// interpreter's with table 0 at some state s0 and table 1 at some state
// s1 >= s0 that the pipeline went through during the burst (a mod does not
// wait for bursts, so one burst may span several).  Under the race detector
// it also holds the writer to its store order: a group, key or value slot
// written after the word or tag that names it, or reused before a grace
// period, races with the workers' loads.
func TestInPlaceModsUnderTraffic(t *testing.T) {
	for _, sk := range stationKeys {
		t.Run(sk.name, func(t *testing.T) { inPlaceModsUnderTraffic(t, sk.key, sk.width) })
	}
}

func inPlaceModsUnderTraffic(t *testing.T, key stationKey, width int) {
	const mods = 2000
	dp, err := Compile(ipPipelineKeyed(key), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := dp.trampolines[0].load().(*hashTable); !ok || h.gather.width() != width {
		t.Fatalf("table 0 compiled to %T, want a compound hash of %d-word keys", dp.trampolines[0].load(), width)
	}
	if k, _ := dp.TableTemplate(1); k != TemplateLPM {
		t.Fatalf("table 1 compiled to %v, want LPM", k)
	}
	var frames [][]byte
	b := pkt.NewBuilder(128)
	frame := func(dst uint64, ip pkt.IPv4) {
		frames = append(frames, pkt.Clone(b.TCPPacket(pkt.EthernetOpts{Dst: pkt.MACFromUint64(dst), Src: pkt.MACFromUint64(9)},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 9, 9, 9), Dst: ip}, pkt.L4Opts{Src: 1000, Dst: 80})))
	}
	for j := 0; j < ipStations; j++ {
		frame(ipStation(j), ipStationDst(j))
	}
	for x := byte(0); x < 8; x++ {
		for y := byte(0); y < 3; y++ {
			for _, z := range []byte{5, 70, 200} {
				frame(0x020000000100+uint64(x), pkt.IPv4FromOctets(10, x, y, z))
			}
		}
	}

	// The mod sequence; oracle[s][i], frame i's egress port (0 when dropped)
	// after s mods; and routed[s][i], its port when table 0 sends it on to
	// table 1 (no station of table 0 has a port of table 1's).
	type mod struct {
		table openflow.TableID
		e     *openflow.FlowEntry // nil: delete match at prio
		match *openflow.Match
		prio  int
	}
	seq := make([]mod, mods)
	oracle, routed := make([][]uint32, mods+1), make([][]uint32, mods+1)
	{
		rng, present := rand.New(rand.NewSource(52)), map[int]bool{}
		pl, routes := ipPipelineKeyed(key), ipPipelineKeyed(key) // routes: table 1's mods only
		ports := func(pl *openflow.Pipeline) []uint32 {
			in := openflow.NewInterpreter(pl)
			out := make([]uint32, len(frames))
			for i, f := range frames {
				var v openflow.Verdict
				in.Process(&pkt.Packet{Data: f, InPort: 1}, &v, nil)
				if len(v.OutPorts) == 1 {
					out[i] = v.OutPorts[0]
				}
			}
			return out
		}
		for s := 0; ; s++ {
			oracle[s], routed[s] = ports(pl), ports(routes)
			if s == mods {
				break
			}
			m := &seq[s]
			m.table, m.e, m.match, m.prio = ipMod(rng, present, key)
			for _, p := range []*openflow.Pipeline{pl, routes} {
				if p == routes && m.table == 0 {
					continue
				}
				if m.e != nil {
					p.Table(m.table).Add(m.e.Clone())
				} else {
					p.Table(m.table).Delete(m.match, m.prio)
				}
			}
		}
	}
	// allowed reports whether port is frame i's verdict with table 0 at some
	// state s0 and table 1 at some state s1, lo <= s0 <= s1 <= hi.
	allowed := func(i int, lo, hi int64, port uint32) bool {
		for s0 := lo; s0 <= hi; s0++ {
			if oracle[s0][i] != routed[s0][i] { // a station of table 0 answers
				if port == oracle[s0][i] {
					return true
				}
				continue
			}
			for s1 := s0; s1 <= hi; s1++ {
				if port == routed[s1][i] {
					return true
				}
			}
		}
		return false
	}

	// started counts the mods the writer has begun, applied those that have
	// returned: a burst between applied=lo and started=hi ran while the
	// pipeline went through states lo..hi.
	var started, applied, bursts atomic.Int64
	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := dp.RegisterWorker()
			defer dp.UnregisterWorker(h)
			packets := make([]pkt.Packet, len(frames))
			ps := make([]*pkt.Packet, len(frames))
			vs := make([]openflow.Verdict, len(frames))
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
				h.Enter()
				h.ProcessBurst(ps, vs)
				h.Exit()
				hi := started.Load()
				for i := range vs {
					got := uint32(0)
					if len(vs[i].OutPorts) == 1 {
						got = vs[i].OutPorts[0]
					}
					if !allowed(i, lo, hi, got) || len(vs[i].OutPorts) > 1 || (got == 0) != vs[i].Dropped {
						errs <- fmt.Errorf("worker %d: frame %d: verdict %v is the interpreter's for no states s0 <= s1 in %d..%d",
							w, i, &vs[i], lo, hi)
						return
					}
				}
				bursts.Add(1)
				runtime.Gosched()
			}
		}(w)
	}
	fail := func(err error) {
		close(done)
		wg.Wait()
		t.Fatal(err)
	}
	incremental := dp.IncrementalUpdates()
	for s, m := range seq {
		started.Add(1)
		var err error
		if m.e != nil {
			err = dp.AddFlow(m.table, m.e.Clone())
		} else if n, derr := dp.DeleteFlow(m.table, m.match, m.prio); n != 1 {
			err = fmt.Errorf("mod %d: deleted %d entries, %v", s, n, derr)
		}
		if err != nil {
			fail(err)
		}
		applied.Add(1)
		for seen := bursts.Load(); bursts.Load() == seen && len(errs) == 0; {
			runtime.Gosched()
		}
		select {
		case err := <-errs:
			fail(err)
		default:
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// A station whose two buckets are full rebuilds the small hash table;
	// the rest apply in place.
	if n := dp.IncrementalUpdates() - incremental; n < mods*98/100 {
		t.Fatalf("%d of %d mods applied in place", n, mods)
	}
}

// TestRetiredHeldUntilGracePeriod holds the LPM and compound-hash templates
// to their reuse rule.  A reader that loaded a word or tag before a delete
// may still follow it, so until a grace period has passed no later mod may
// rewrite the group, the value slot or the hash lane it names.  The test loads the word
// itself and holds it across the writer's mods; each structure's grace-period
// wait is replaced by a counter, and the held view is checked while the
// structure's counter reads 0.
func TestRetiredHeldUntilGracePeriod(t *testing.T) {
	compile := func(t *testing.T) *Datapath {
		dp, err := Compile(ipPipeline(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}
	add := func(t *testing.T, dp *Datapath, table openflow.TableID, e *openflow.FlowEntry) {
		t.Helper()
		incremental := dp.IncrementalUpdates()
		if err := dp.AddFlow(table, e); err != nil || dp.IncrementalUpdates() != incremental+1 {
			t.Fatalf("add %v: %v, not in place", e, err)
		}
	}
	route := func(k int) *openflow.FlowEntry {
		m, prio, port := ipRoute(k)
		return openflow.NewEntry(prio, m, openflow.Apply(openflow.Output(port)))
	}
	t.Run("lpm", func(t *testing.T) {
		dp := compile(t)
		l := dp.trampolines[1].load().(*lpmTable)
		var groups, slots int
		l.table.Publish(func() { groups++ })
		l.quiesce = func() { slots++ }
		add(t, dp, 1, route(ipSlash24s)) // 10.0.0.64/26
		addr, cover := uint32(pkt.IPv4FromOctets(10, 0, 0, 70)), uint32(pkt.IPv4FromOctets(10, 0, 0, 5))
		word := l.table.Probe1(addr) // the held reader's first level, naming the group
		idx, _, _ := l.table.Resolve(addr, word)
		coverIdx, _, _ := l.table.Resolve(cover, word)
		held := l.entry(idx)
		if _, err := dp.DeleteFlow(1, held.entry.Match, held.entry.Priority); err != nil {
			t.Fatal(err)
		}
		// /26s under the other /16s: a group reused for one of them holds
		// another /16's cover.
		for k := ipSlash24s + 2; k < 2*ipSlash24s && (groups == 0 || slots == 0); k++ {
			add(t, dp, 1, route(k))
			if v, _, ok := l.table.Resolve(cover, word); groups == 0 && (!ok || v != coverIdx) {
				t.Fatalf("the held group was rewritten without a grace period: %d,%v, want %d", v, ok, coverIdx)
			}
			if ce := l.entry(idx); slots == 0 && ce != held {
				t.Fatal("the held value slot was rewritten without a grace period")
			}
		}
		if groups == 0 || slots == 0 {
			t.Fatalf("%d and %d grace periods: no add needed the retired group and slot", groups, slots)
		}
	})
	t.Run("hash", func(t *testing.T) {
		dp := compile(t)
		h := dp.trampolines[0].load().(*hashTable)
		// v is the held reader's slot, found by its tag and key before the
		// delete; a grace period checks that no mod rewrote it before.
		var (
			lanes int
			v     *atomic.Pointer[compiledEntry]
			held  *compiledEntry
		)
		h.publish(func() {
			if lanes++; v.Load() != held {
				t.Error("the retired lane was rewritten without a grace period")
			}
		})
		station := func(j int) *openflow.FlowEntry {
			return openflow.NewEntry(100, openflow.NewMatch().Set(openflow.FieldEthDst, ipStation(j)), openflow.Apply(openflow.Output(uint32(48+j))))
		}
		add(t, dp, 0, station(0))
		v = h.index.Value(h.gather.entry(station(0).Match))
		held = v.Load()
		if _, err := dp.DeleteFlow(0, held.entry.Match, held.entry.Priority); err != nil {
			t.Fatal(err)
		}
		// The next add reclaims the retired lane after a grace period.
		add(t, dp, 0, station(1))
		if lanes == 0 {
			t.Fatal("the add did not wait for a grace period")
		}
		if ce := v.Load(); ce == held {
			t.Fatal("the retired lane still holds the deleted entry after a grace period")
		}
	})
}

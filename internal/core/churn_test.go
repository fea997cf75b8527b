package core

import (
	"math/rand"
	"testing"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/workload"
)

// BenchmarkCachedChurn is cached forwarding under flow-mods that change no
// verdict: the gateway behind a 2,048-entry verdict cache, Zipf(1.1) traffic
// over 4,096 flows in 32-packet bursts, and one flow-mod after every 1,024
// packets.  The mods alternate adds and deletes that no packet matches:
// "none" makes none, "user-only" admits and removes users in the per-CE
// tables, and "churn-mix" makes every eighth mod a /24 route in 240/4 that
// the eighth after withdraws, as the repo benchmark's gateway_churn does.
// ns/pkt times the bursts only, not the mods; hit and stale are the cache's
// ratios over the timed packets.  A mod reaches the entries whose walk
// visited its table, so user mods should cost cached forwarding next to
// nothing, and route mods, which every walk visits, a scan each.
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkCachedChurn -benchtime 2000000x
func BenchmarkCachedChurn(b *testing.B) {
	const (
		flows    = 4096
		burst    = 32
		perMod   = 1024
		schedule = 1 << 16
	)
	cfg := workload.DefaultGatewayConfig()
	uc := workload.GatewayUseCase(cfg)
	opts := DefaultOptions()
	opts.FlowCache = 2048
	tr := uc.Trace(flows)
	frames := make([][]byte, tr.NumFlows())
	ports := make([]uint32, len(frames))
	for i := range frames {
		frames[i], ports[i] = tr.Frame(i)
	}
	z, err := pktgen.Zipf(1.1, len(frames), cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	order := make([]int32, schedule)
	for i := range order {
		order[i] = int32(z.Next())
	}

	for _, mix := range []struct {
		name   string
		mods   bool
		routes bool
	}{{"none", false, false}, {"user-only", true, false}, {"churn-mix", true, true}} {
		b.Run(mix.name, func(b *testing.B) {
			dp, err := Compile(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			w := dp.RegisterWorker().(*Worker)
			defer dp.UnregisterWorker(w)
			packets := make([]pkt.Packet, burst)
			ps := make([]*pkt.Packet, burst)
			vs := make([]openflow.Verdict, burst)
			cursor := 0
			// forward runs n packets of the schedule through the worker
			// and returns how long the bursts took.
			forward := func(n int) time.Duration {
				w.Enter()
				t0 := time.Now()
				for ; n > 0; n -= burst {
					for j := range ps {
						f := order[cursor%schedule]
						cursor++
						packets[j] = pkt.Packet{Data: frames[f], InPort: ports[f]}
						ps[j] = &packets[j]
					}
					w.ProcessBurst(ps, vs)
				}
				d := time.Since(t0)
				w.Exit()
				return d
			}
			forward(schedule) // warm the cache
			mods := &churnMods{rng: rand.New(rand.NewSource(cfg.Seed)), routes: mix.routes}
			before := dp.FlowCacheStats()
			var fwd time.Duration
			b.ResetTimer()
			for done := 0; done < b.N; done += perMod {
				fwd += forward(perMod)
				if mix.mods {
					if err := mods.apply(dp); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := dp.FlowCacheStats()
			n := float64(st.Hits + st.Misses - before.Hits - before.Misses)
			b.ReportMetric(float64(fwd.Nanoseconds())/n, "ns/pkt")
			b.ReportMetric(float64(st.Hits-before.Hits)/n, "hit")
			b.ReportMetric(float64(st.Stale-before.Stale)/n, "stale")
		})
	}
}

// churnMods generates BenchmarkCachedChurn's flow-mods: the admission of a
// user no packet comes from (numbered from 1,000 up) into a per-CE table,
// then its removal, and so on; with routes, every eighth mod instead adds a
// /24 in 240/4, outside every generated route, or withdraws the last one.
type churnMods struct {
	rng    *rand.Rand
	routes bool
	n      int
	// undoUser and undoRoute delete the last admitted user and route.
	undoUser, undoRoute func(*Datapath) error
}

// apply makes the next mod on dp.
func (c *churnMods) apply(dp *Datapath) error {
	j := c.n
	c.n++
	if c.routes && j%8 == 7 {
		if undo := c.undoRoute; undo != nil {
			c.undoRoute = nil
			return undo(dp)
		}
		addr := pkt.IPv4FromOctets(240+byte(c.rng.Intn(15)), byte(c.rng.Intn(256)), byte(c.rng.Intn(256)), 0)
		m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(addr), 24)
		c.undoRoute = func(dp *Datapath) error {
			_, err := dp.DeleteFlow(workload.GatewayTableRouting, m, 24)
			return err
		}
		return dp.AddFlow(workload.GatewayTableRouting, openflow.NewEntry(24, m.Clone(),
			openflow.Apply(openflow.DecTTL(), openflow.Output(2))))
	}
	if undo := c.undoUser; undo != nil {
		c.undoUser = nil
		return undo(dp)
	}
	ce, u := c.rng.Intn(workload.DefaultGatewayConfig().CEs), 1000+c.rng.Intn(20000)
	m := openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(pkt.IPv4FromOctets(10, byte(ce), byte(u>>8), byte(u))))
	table := workload.GatewayTableForCE(ce)
	c.undoUser = func(dp *Datapath) error {
		_, err := dp.DeleteFlow(table, m, 100)
		return err
	}
	return dp.AddFlow(table, openflow.NewEntry(100, m.Clone(),
		openflow.ApplyThenGoto(workload.GatewayTableRouting,
			openflow.SetField(openflow.FieldIPSrc, uint64(pkt.IPv4FromOctets(100, 64+byte(ce), byte(u>>8), byte(u)))),
			openflow.PopVLAN())))
}

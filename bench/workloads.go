package main

import (
	"math/rand"

	"eswitch/internal/core"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/workload"
)

// Traffic and cache geometry shared by every workload.  The flow set and the
// caches are sized so that the hot working set (frames, touched table lines,
// cache entries) stays inside the private L2 of this box: with issue 13's
// 100 000 flows and 64k / 4k cache entries it spills into an L3 shared with
// other tenants, and the same code then repeats to 5-10% instead of 1-5%
// (bench/README.md, "Working set").  The ratios that define the cached
// workloads are kept — twice as many uniform flows as microflow-cache
// entries, eight times as many cache entries as megaflow entries — and the
// issue's geometry is still driven in every traced run, as the unbounded
// layer metric dpdk.fwd_100k_mpps.
const (
	activeFlows   = 4096
	flowCacheSize = activeFlows / 2
	megaflowSize  = activeFlows / 16

	issueFlows         = 100000
	issueFlowCacheSize = 65536
	issueMegaflowSize  = 4096

	zipfExponent    = 1.1
	zipfScheduleLen = 1 << 18 // pre-sampled Zipf draws, replayed cyclically

	roundFrames   = 256 // frames injected per round
	roundsPerUnit = 4
	unitFrames    = roundFrames * roundsPerUnit

	warmupFrames = 1 << 19
	oracleFrames = 16384
)

// spec describes one workload.  Everything the program under test sees —
// pipeline, frames, flow-mods — is generated from the seed here.
type spec struct {
	name string
	why  string
	// build constructs the use case (pipeline + trace generator).
	build func(seed int64) *workload.UseCase
	// options are the compile options of the workload.
	options func() core.Options
	// zipf selects Zipf(1.1) flow popularity instead of a round-robin sweep.
	zipf bool
	// churn issues one flow-mod before every unit of the timed phase.
	churn bool
	// setupK is how many cold set-ups one instance times.
	setupK int
	// units is the length of one instance's timed phase at the default
	// -seconds: a constant, so program counters repeat per seed, sized at
	// the commit that defined the benchmark for about 2 s where a build
	// takes 0.15 s and 4 s where it takes milliseconds or every unit carries
	// a flow-mod, which puts every workload's whole run near 20 s.
	units int
	// probeMods is the length of the post-phase flow-mod probe (unused by
	// the churn workload, whose mods ride inside the timed phase); sized so
	// the probe stays near 0.2 s per instance.
	probeMods int
	// mods generates the workload's flow-mod sequence.
	mods func(rng *rand.Rand, n int) []flowMod
}

func cachedOptions() core.Options {
	o := core.DefaultOptions()
	o.FlowCache = flowCacheSize
	o.Megaflow = megaflowSize
	return o
}

func gatewayConfig(seed int64) workload.GatewayConfig {
	cfg := workload.DefaultGatewayConfig()
	cfg.Seed = seed
	return cfg
}

var specs = []*spec{
	{
		name: "l3_uniform",
		why:  "10k-prefix LPM router, round-robin flows, no caches: parser, LPM template, action apply and ring I/O do all the work (Fig. 11)",
		build: func(seed int64) *workload.UseCase {
			return workload.L3UseCase(10000, 8, seed)
		},
		options:   core.DefaultOptions,
		setupK:    3,
		units:     13000,
		probeMods: 256,
		mods:      ribMods(0, 1, 8),
	},
	{
		name: "lb_decomposed",
		why:  "100-service load balancer with table decomposition, no caches: the only workload on the decomposer and the wildcard (linked-list) template (Fig. 12)",
		build: func(int64) *workload.UseCase {
			return workload.LoadBalancerUseCase(100)
		},
		options: func() core.Options {
			o := core.DefaultOptions()
			o.Decompose = true
			return o
		},
		setupK:    128,
		units:     14000,
		probeMods: 2000,
		mods:      lbMods,
	},
	{
		name: "gateway_zipf_cached",
		why:  "four-table access-gateway DAG under Zipf(1.1) skew with both caches armed: microflow hits and verdict replay do the work, the template walk little (Fig. 13)",
		build: func(seed int64) *workload.UseCase {
			return workload.GatewayUseCase(gatewayConfig(seed))
		},
		options:   cachedOptions,
		zipf:      true,
		setupK:    3,
		units:     9600,
		probeMods: 256,
		mods:      ribMods(workload.GatewayTableRouting, 2, 1),
	},
	{
		name: "l2_uniform_cached",
		why:  "1000-MAC hash table behind caches half the size of the round-robin flow set: nearly every packet misses, so the cache layer is pure tax in front of a cheap lookup",
		build: func(int64) *workload.UseCase {
			return workload.L2UseCase(1000, 4)
		},
		options:   cachedOptions,
		setupK:    128,
		units:     9000,
		probeMods: 2000,
		mods:      l2Mods,
	},
	{
		name: "gateway_churn",
		why:  "gateway_zipf_cached with one flow-mod before every unit: update path, generation bump and cache refill race forwarding (Fig. 17-18)",
		build: func(seed int64) *workload.UseCase {
			return workload.GatewayUseCase(gatewayConfig(seed))
		},
		options: cachedOptions,
		zipf:    true,
		churn:   true,
		setupK:  3,
		units:   4500,
		mods:    churnMods,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// flowMod is one generated flow-table modification: an add of entry, or a
// delete of (match, priority).  pair numbers the generated entry, shared by
// its add and its delete; it is below the length of the sequence.
type flowMod struct {
	table    openflow.TableID
	add      bool
	entry    *openflow.FlowEntry
	match    *openflow.Match
	priority int
	pair     int
}

// addDel turns generated entry number pair into the add and the later delete
// of it.
func addDel(pair int, table openflow.TableID, e *openflow.FlowEntry) (flowMod, flowMod) {
	return flowMod{table: table, add: true, entry: e, match: e.Match, priority: e.Priority, pair: pair},
		flowMod{table: table, match: e.Match, priority: e.Priority, pair: pair}
}

// alternating emits n mods as add/delete pairs of the entries gen yields.
func alternating(n int, table openflow.TableID, gen func() *openflow.FlowEntry) []flowMod {
	out := make([]flowMod, 0, n+1)
	for len(out) < n {
		a, d := addDel(len(out)/2, table, gen())
		out = append(out, a, d)
	}
	return out[:n]
}

// modRoute is a /24 in 240.0.0.0/4, outside the unicast space GenerateRoutes
// draws from, so a generated route never collides with an installed one.
func modRoute(rng *rand.Rand, firstPort, numPorts int) *openflow.FlowEntry {
	addr := pkt.IPv4FromOctets(240+byte(rng.Intn(15)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0)
	return openflow.NewEntry(24,
		openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(addr), 24),
		openflow.Apply(openflow.DecTTL(), openflow.Output(uint32(firstPort+rng.Intn(numPorts)))))
}

// ribMods alternates add/delete of seeded /24 routes shaped like the RIB's
// own entries (LPM template, incremental); next hops are drawn from numPorts
// ports starting at firstPort.
func ribMods(table openflow.TableID, firstPort, numPorts int) func(*rand.Rand, int) []flowMod {
	return func(rng *rand.Rand, n int) []flowMod {
		return alternating(n, table, func() *openflow.FlowEntry { return modRoute(rng, firstPort, numPorts) })
	}
}

// lbMods alternates add/delete of one backend half of a new web service,
// shaped like the load balancer's own entries.
func lbMods(rng *rand.Rand, n int) []flowMod {
	return alternating(n, 0, func() *openflow.FlowEntry {
		ip := pkt.IPv4FromOctets(203, 0, byte(rng.Intn(256)), byte(rng.Intn(256)))
		half := uint64(rng.Intn(2)) << 31
		return openflow.NewEntry(20,
			openflow.NewMatch().
				Set(openflow.FieldIPDst, uint64(ip)).
				Set(openflow.FieldTCPDst, 80).
				SetMasked(openflow.FieldIPSrc, half, 0x80000000),
			openflow.Apply(openflow.Output(uint32(3+(half>>31)))))
	})
}

// l2Mods alternates add/delete of newly learned MAC addresses.
func l2Mods(rng *rand.Rand, n int) []flowMod {
	return alternating(n, 0, func() *openflow.FlowEntry {
		mac := uint64(0x020001000000) + uint64(rng.Intn(1<<20))
		return openflow.NewEntry(100,
			openflow.NewMatch().Set(openflow.FieldEthDst, mac),
			openflow.Apply(openflow.Output(uint32(1+rng.Intn(4)))))
	})
}

// churnMods is the gateway_churn sequence: per-CE user admissions and
// removals (compound hash, incremental), with every eighth mod a RIB route
// (LPM) that the eighth mod after it withdraws.
func churnMods(rng *rand.Rand, n int) []flowMod {
	cfg := workload.DefaultGatewayConfig()
	user := func() *openflow.FlowEntry {
		ce := rng.Intn(cfg.CEs)
		u := 1000 + rng.Intn(20000)
		private := pkt.IPv4FromOctets(10, byte(ce), byte(u>>8), byte(u))
		public := pkt.IPv4FromOctets(100, 64+byte(ce), byte(u>>8), byte(u))
		return openflow.NewEntry(100,
			openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(private)),
			openflow.ApplyThenGoto(workload.GatewayTableRouting,
				openflow.SetField(openflow.FieldIPSrc, uint64(public)),
				openflow.PopVLAN()))
	}
	userTable := func(e *openflow.FlowEntry) openflow.TableID {
		v, _, _ := e.Match.Get(openflow.FieldIPSrc)
		return workload.GatewayTableForCE(int(byte(v >> 16)))
	}
	out := make([]flowMod, 0, n)
	var pendingUser, pendingRoute *flowMod
	pairs := 0
	for j := 0; j < n; j++ {
		if j%8 == 7 {
			if pendingRoute != nil {
				out = append(out, *pendingRoute)
				pendingRoute = nil
				continue
			}
			a, d := addDel(pairs, workload.GatewayTableRouting, modRoute(rng, 2, 1))
			pairs++
			out = append(out, a)
			pendingRoute = &d
			continue
		}
		if pendingUser != nil {
			out = append(out, *pendingUser)
			pendingUser = nil
			continue
		}
		e := user()
		a, d := addDel(pairs, userTable(e), e)
		pairs++
		out = append(out, a)
		pendingUser = &d
	}
	return out
}

// traffic is the generated frame sequence of one run: one minimum-size frame
// per active flow plus the order they are emitted in.
type traffic struct {
	frames  [][]byte
	inPorts []uint32
	order   []int32
	cursor  int
}

// newTraffic builds the flow set of the use case and a seeded emission
// schedule over it: a seeded permutation swept round-robin, or Zipf ranks
// mapped through that permutation.
func newTraffic(uc *workload.UseCase, flows int, zipf bool, seed int64) (*traffic, error) {
	tr := uc.Trace(flows)
	n := tr.NumFlows()
	t := &traffic{frames: make([][]byte, n), inPorts: make([]uint32, n)}
	for i := 0; i < n; i++ {
		t.frames[i], t.inPorts[i] = tr.Frame(i)
	}
	perm := rand.New(rand.NewSource(seed ^ 0x7a3d)).Perm(n)
	if !zipf {
		t.order = make([]int32, n)
		for i, f := range perm {
			t.order[i] = int32(f)
		}
		return t, nil
	}
	g, err := pktgen.Zipf(zipfExponent, n, seed)
	if err != nil {
		return nil, err
	}
	t.order = make([]int32, zipfScheduleLen)
	for i := range t.order {
		t.order[i] = int32(perm[g.Next()])
	}
	return t, nil
}

// next returns the index of the next flow to emit.
func (t *traffic) next() int32 {
	f := t.order[t.cursor]
	t.cursor++
	if t.cursor == len(t.order) {
		t.cursor = 0
	}
	return f
}

package core

import (
	"fmt"
	"math"
	"testing"

	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// cyclePin is one row of TestCycleModelPinned: the cycle model's totals for a
// fixed trace through one bundled use case, on the compiled datapath and on
// the OVS baseline.
type cyclePin struct {
	name              string
	eswCycles, eswLLC uint64
	ovsCycles, ovsLLC uint64
}

// cyclePins was recorded from the model as it stands; a change that moves any
// number moves the figures the experiments regenerate.  To regenerate the
// table after a deliberate cost-model change, run
//
//	go test ./internal/core -run '^TestCycleModelPinned$'
//
// and paste the "got" rows the failures print over the stale ones.
var cyclePins = []cyclePin{
	{"l2", 2542336, 16, 5212976, 5780},
	{"l3", 3042172, 863, 7003207, 9226},
	// Decompose has nothing to do on the load balancer: one hash stage.
	{"loadbalancer", 2501168, 8, 6461317, 5705},
	{"loadbalancer-decomposed", 2501168, 8, 6461317, 5705},
	{"gateway", 3754378, 1349, 8404219, 15016},
	{"l3-acl", 3628309, 1308, 5185115, 5833},
}

// TestCycleModelPinned sends a fixed trace through every bundled use case on
// two metered switches — the compiled datapath's per-packet walk and the OVS
// baseline's cache hierarchy — and requires the exact cycle and LLC-miss
// totals of cyclePins.  The model holds no maps and no randomness, so the
// totals are a pure function of the pipeline and the trace: a refactor of a
// metered path that moves them has changed what the model charges.
func TestCycleModelPinned(t *testing.T) {
	useCases := map[string]func() (*workload.UseCase, bool){
		"l2":                      func() (*workload.UseCase, bool) { return workload.L2UseCase(1000, 4), false },
		"l3":                      func() (*workload.UseCase, bool) { return workload.L3UseCase(1000, 8, 2016), false },
		"loadbalancer":            func() (*workload.UseCase, bool) { return workload.LoadBalancerUseCase(100), false },
		"loadbalancer-decomposed": func() (*workload.UseCase, bool) { return workload.LoadBalancerUseCase(100), true },
		"gateway": func() (*workload.UseCase, bool) {
			return workload.GatewayUseCase(workload.GatewayConfig{CEs: 10, UsersPerCE: 20, Prefixes: 2000, Seed: 2016}), false
		},
		"l3-acl": func() (*workload.UseCase, bool) { return workload.L3ACLRouterUseCase(1000, 1000, 8, 2016), false },
	}
	const flows, packets = 2000, 20000
	for _, want := range cyclePins {
		t.Run(want.name, func(t *testing.T) {
			uc, decompose := useCases[want.name]()
			opts := DefaultOptions()
			opts.Decompose = decompose
			opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			dp, err := Compile(uc.Pipeline, opts)
			if err != nil {
				t.Fatal(err)
			}
			oopts := ovs.DefaultOptions()
			oopts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			sw, err := ovs.New(uc.Pipeline.Clone(), oopts)
			if err != nil {
				t.Fatal(err)
			}
			tr := uc.Trace(flows)
			var next pkt.Packet
			var v openflow.Verdict
			for i := 0; i < packets; i++ {
				tr.Next(&next)
				p := pkt.Packet{Data: next.Data, InPort: next.InPort}
				dp.ProcessUnlocked(&p, &v)
				p = pkt.Packet{Data: next.Data, InPort: next.InPort}
				sw.Process(&p, &v)
			}
			got := cyclePin{name: want.name}
			got.eswCycles, got.eswLLC = meterTotals(opts.Meter)
			got.ovsCycles, got.ovsLLC = meterTotals(oopts.Meter)
			if got != want {
				t.Errorf("cycle model moved:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// meterTotals returns the meter's total cycles and LLC misses.
func meterTotals(m *cpumodel.Meter) (cycles, llcMisses uint64) {
	return m.TotalCycles(), uint64(math.Round(m.LLCMissesPerPacket() * float64(m.Packets())))
}

// String formats the row as it appears in cyclePins.
func (c cyclePin) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d},", c.name, c.eswCycles, c.eswLLC, c.ovsCycles, c.ovsLLC)
}

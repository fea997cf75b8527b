// L3 router example: ESWITCH as an IP software router.  A 10K-prefix routing
// table compiles into the DIR-24-8 LPM template; the same pipeline runs on
// the flow-caching baseline for comparison, and the example sweeps the active
// flow set to show where the cache-based design loses its footing while the
// specialized datapath stays flat (the paper's Fig. 11).
//
//	go run ./examples/l3router
package main

import (
	"fmt"

	"eswitch"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

func main() {
	uc := eswitch.L3UseCase(10000, 8, 42)

	esOpts := eswitch.DefaultOptions()
	esOpts.Meter = eswitch.NewMeter(eswitch.DefaultPlatform())
	// Each switch takes its pipeline over, so the router compiles a copy.
	router, err := eswitch.New(uc.Pipeline.Clone(), esOpts)
	if err != nil {
		panic(err)
	}
	if kind, _ := router.TableTemplate(0); kind != eswitch.TemplateLPM {
		panic(fmt.Sprintf("expected the LPM template, got %v", kind))
	}
	fmt.Println("ESWITCH compiled the RIB into the DIR-24-8 LPM template")

	baseOpts := eswitch.DefaultBaselineOptions()
	baseOpts.Meter = eswitch.NewMeter(eswitch.DefaultPlatform())
	baseline, err := eswitch.NewBaseline(uc.Pipeline, baseOpts)
	if err != nil {
		panic(err)
	}

	run := func(process func(*pkt.Packet, *openflow.Verdict), meter *eswitch.Meter, flows, packets int) float64 {
		trace := uc.Trace(flows)
		var p eswitch.Packet
		var v eswitch.Verdict
		for i := 0; i < flows && i < packets; i++ { // warm up caches / working set
			trace.Next(&p)
			process(&p, &v)
		}
		meter.Reset()
		for i := 0; i < packets; i++ {
			trace.Next(&p)
			process(&p, &v)
		}
		return meter.PacketRate() / 1e6
	}

	fmt.Printf("%12s %14s %14s\n", "active flows", "ESWITCH Mpps", "baseline Mpps")
	for _, flows := range []int{1, 100, 10_000, 100_000} {
		packets := 4 * flows
		if packets < 40_000 {
			packets = 40_000
		}
		es := run(router.Process, esOpts.Meter, flows, packets)
		ov := run(baseline.Process, baseOpts.Meter, flows, packets)
		fmt.Printf("%12d %14.2f %14.2f\n", flows, es, ov)
	}
	st := baseline.Stats()
	fmt.Printf("baseline cache levels at the last point: microflow=%d megaflow=%d slow-path upcalls=%d\n",
		st.Microflow, st.Megaflow, st.SlowPath)
}

// Load balancer example (Fig. 7 of the paper): a single-table pipeline that
// splits HTTP traffic for a set of web services across two backends by the
// first bit of the client address.  It compiles to one compound hash over the
// services, whose direct-code tail holds the two low-priority defaults (the
// backend-reply rule and the drop), so flow-table decomposition has nothing
// to do: both compilations below give the same single stage.
//
//	go run ./examples/loadbalancer
package main

import (
	"fmt"

	"eswitch"
)

func main() {
	const services = 50
	uc := eswitch.LoadBalancerUseCase(services)

	// Compile once without and once with table decomposition: the
	// decomposer (§3.2) only rewrites tables that would otherwise fall back
	// to the linked-list template, and this one does not.  Each switch takes
	// its pipeline over, so the first compiles a copy.
	naiveOpts := eswitch.DefaultOptions()
	naive, err := eswitch.New(uc.Pipeline.Clone(), naiveOpts)
	if err != nil {
		panic(err)
	}
	decompOpts := eswitch.DefaultOptions()
	decompOpts.Decompose = true
	decomposed, err := eswitch.New(uc.Pipeline, decompOpts)
	if err != nil {
		panic(err)
	}

	count := func(sw *eswitch.Switch) map[eswitch.TemplateKind]int {
		m := map[eswitch.TemplateKind]int{}
		for _, st := range sw.Stages() {
			m[st.Template]++
		}
		return m
	}
	fmt.Printf("naive compilation:      %d stage(s), templates: %v\n", len(naive.Stages()), count(naive))
	fmt.Printf("with decomposition:     %d stage(s), templates: %v\n", len(decomposed.Stages()), count(decomposed))

	// Both must forward identically; send web and non-web traffic at them.
	trace := uc.Trace(1000)
	var p, q eswitch.Packet
	var v1, v2 eswitch.Verdict
	backends := map[uint32]int{}
	for i := 0; i < 5000; i++ {
		trace.Next(&p)
		data := append(q.Data[:0], p.Data...)
		q.Reset()
		q.Data = data
		q.InPort = p.InPort
		naive.Process(&p, &v1)
		decomposed.Process(&q, &v2)
		if !v1.Equivalent(&v2) {
			panic(fmt.Sprintf("decomposition changed forwarding: %s vs %s", v1.String(), v2.String()))
		}
		if v1.Forwarded() {
			backends[v1.OutPorts[0]]++
		}
	}
	fmt.Printf("traffic split across backends: %v\n", backends)

	// The analytic performance model (§4.4) derived from each compiled
	// datapath: the same stage, the same rate.
	naiveModel := naive.PerformanceModel("naive load balancer")
	decompModel := decomposed.PerformanceModel("decomposed load balancer")
	platform := eswitch.DefaultPlatform()
	fmt.Printf("modelled single-core rate, naive:      %.2f Mpps\n", naiveModel.RateAt(platform, platform.L1Lat)/1e6)
	fmt.Printf("modelled single-core rate, decomposed: %.2f Mpps\n", decompModel.RateAt(platform, platform.L1Lat)/1e6)
}

package core

import (
	"slices"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// fiveTupleACL is L3ACLRouterUseCase with ip_proto added to every rule of its
// ACL: the stage then gathers three layout words (ip_proto, the addresses,
// the ports) and its cuckoo table stores four-word keys.  The trace's frames
// are TCP, so they still hit.
func fiveTupleACL() *workload.UseCase {
	uc := workload.L3ACLRouterUseCase(1000, 1000, 8, 2016)
	acl := uc.Pipeline.Table(0)
	entries := slices.Clone(acl.Entries())
	acl.DeleteWhere(func(*openflow.FlowEntry) bool { return true })
	for _, e := range entries {
		if c := e.Clone(); c.Match.IsEmpty() {
			acl.Add(c)
		} else {
			c.Match.Set(openflow.FieldIPProto, 6)
			acl.Add(c)
		}
	}
	return uc
}

// hashStages are the compiled compound-hash stages the lookup benchmarks
// time, at each key width: the L2 bridge's eth_dst (one word), and in four
// words the load balancer's addresses and port, the L3 router ACL's stage
// and that ACL with ip_proto.
var hashStages = []struct {
	name  string
	uc    func() *workload.UseCase
	width int
}{
	{"l2", func() *workload.UseCase { return workload.L2UseCase(1000, 4) }, 1},
	{"loadbalancer", func() *workload.UseCase { return workload.LoadBalancerUseCase(100) }, 4},
	{"l3-acl", func() *workload.UseCase { return workload.L3ACLRouterUseCase(1000, 1000, 8, 2016) }, 4},
	{"five-tuple-acl", fiveTupleACL, 4},
}

// hashStage compiles a use case, checks that its first table is a compound
// hash of the given key width, and parses the first flows frames of its
// trace.
func hashStage(b *testing.B, uc *workload.UseCase, width, flows int) (*hashTable, []*pkt.Packet) {
	dp, err := Compile(uc.Pipeline, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	h := dp.trampolines[0].load().(*hashTable)
	if w := h.gather.width(); w != width {
		b.Fatalf("the stage's key is %d words wide, want %d", w, width)
	}
	tr := uc.Trace(flows)
	ps := make([]*pkt.Packet, flows)
	for i := range ps {
		frame, port := tr.Frame(i)
		ps[i] = &pkt.Packet{Data: frame, InPort: port}
		pkt.ParseL4(ps[i])
	}
	return h, ps
}

// BenchmarkHashLookupBurst times a compiled compound-hash stage's own
// LookupBurst, 32 parsed packets at a time, on each of hashStages.  The
// packets cycle through 1,000 flows of the use case's trace.
func BenchmarkHashLookupBurst(b *testing.B) {
	const flows, burst = 1000, 32
	for _, c := range hashStages {
		b.Run(c.name, func(b *testing.B) {
			h, ps := hashStage(b, c.uc(), c.width, flows)
			outs := make([]*compiledEntry, burst)
			sc := new(burstScratch)
			b.ResetTimer()
			for i := range b.N {
				base := i * burst % (flows - burst)
				h.LookupBurst(ps[base:base+burst], outs, sc)
			}
			b.StopTimer()
			for i, ce := range outs {
				if ce == nil {
					b.Fatalf("packet %d missed the stage", i)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/pkt")
		})
	}
}

// BenchmarkHashLookup times the same stages' per-packet Lookup, which
// gathers through keyGather.packet where a burst stages its keys.
func BenchmarkHashLookup(b *testing.B) {
	const flows = 1000
	for _, c := range hashStages {
		b.Run(c.name, func(b *testing.B) {
			h, ps := hashStage(b, c.uc(), c.width, flows)
			b.ResetTimer()
			for i := range b.N {
				if h.Lookup(ps[i%flows], nil) == nil {
					b.Fatalf("packet %d missed the stage", i%flows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pkt")
		})
	}
}

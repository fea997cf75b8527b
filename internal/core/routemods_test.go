package core

import (
	"math/rand"
	"slices"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// TestReplaceIsIncremental changes the instructions of installed entries —
// routes of the RIB, the RIB's default route, keyed entries of a compound
// hash and its catch-all tail — several times in a row, so each replace is
// also replayed onto the shadow copy by the next mod.  None of them may
// rebuild a template, and after each the datapath must agree with the
// interpreter.  A replace in the linked list rebuilds the table.
func TestReplaceIsIncremental(t *testing.T) {
	t.Run("lpm", func(t *testing.T) {
		uc := workload.L3UseCase(2000, 8, 2016)
		dp, err := Compile(uc.Pipeline, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if k, _ := dp.TableTemplate(0); k != TemplateLPM {
			t.Fatalf("the RIB compiled to %v", k)
		}
		tr := uc.Trace(256)
		packets := make([]*pkt.Packet, tr.NumFlows())
		for i := range packets {
			frame, port := tr.Frame(i)
			packets[i] = &pkt.Packet{Data: frame, InPort: port}
		}
		packets = append(packets, tcpPacket(t, 1, 1, pkt.IPv4FromOctets(240, 1, 2, 3), 1, 80)) // the default route
		rib := dp.Pipeline().Table(0).Entries()
		victims := []*openflow.FlowEntry{rib[0], rib[len(rib)/3], rib[len(rib)/2], rib[len(rib)-1], rib[len(rib)/3]}
		replaceAll(t, dp, 0, victims, packets, false)
	})
	t.Run("hash", func(t *testing.T) {
		dp, err := Compile(macPipeline(50), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if k, _ := dp.TableTemplate(0); k != TemplateHash {
			t.Fatalf("the MAC table compiled to %v", k)
		}
		var packets []*pkt.Packet
		for i := 0; i < 60; i++ { // the last ten miss the keyed band
			packets = append(packets, ethPacket(t, 1, pkt.MACFromUint64(0x020000000000+uint64(i)), pkt.MACFromUint64(9)))
		}
		entries := dp.Pipeline().Table(0).Entries()
		victims := []*openflow.FlowEntry{entries[3], entries[len(entries)-1], entries[17], entries[3]}
		replaceAll(t, dp, 0, victims, packets, false)
	})
	t.Run("list", func(t *testing.T) {
		dp, err := Compile(macPipeline(50), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// A second field set breaks the hash prerequisite: the table is
		// rebuilt as a linked list.
		if err := dp.AddFlow(0, openflow.NewEntry(200, openflow.NewMatch().Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(4)))); err != nil {
			t.Fatal(err)
		}
		if k, _ := dp.TableTemplate(0); k != TemplateLinkedList {
			t.Fatalf("the mixed table compiled to %v", k)
		}
		packets := []*pkt.Packet{tcpPacket(t, 1, 1, 2, 3, 80)}
		for i := 0; i < 60; i++ {
			packets = append(packets, ethPacket(t, 1, pkt.MACFromUint64(0x020000000000+uint64(i)), pkt.MACFromUint64(9)))
		}
		entries := dp.Pipeline().Table(0).Entries()
		victims := []*openflow.FlowEntry{entries[0], entries[5], entries[len(entries)-1], entries[5]}
		replaceAll(t, dp, 0, victims, packets, true)
	})
}

// replaceAll replaces each victim in turn with new instructions, checking
// the datapath against the interpreter after each, and that each replace was
// a rebuild (rebuild) or an incremental update (!rebuild).
func replaceAll(t *testing.T, dp *Datapath, table openflow.TableID, victims []*openflow.FlowEntry, packets []*pkt.Packet, rebuild bool) {
	t.Helper()
	agreesWithInterpreter(t, dp, "compiled", packets...)
	rebuilds, incremental := dp.Rebuilds(), dp.IncrementalUpdates()
	for i, v := range victims {
		port := uint32(1 + (i+int(v.Instructions.ApplyActions[len(v.Instructions.ApplyActions)-1].Port))%4)
		e := openflow.NewEntry(v.Priority, v.Match.Clone(), openflow.Apply(openflow.DecTTL(), openflow.Output(port)))
		if err := dp.AddFlow(table, e); err != nil {
			t.Fatal(err)
		}
		wantRebuilds, wantIncremental := uint64(0), uint64(i+1)
		if rebuild {
			wantRebuilds, wantIncremental = wantIncremental, wantRebuilds
		}
		if dp.Rebuilds()-rebuilds != wantRebuilds || dp.IncrementalUpdates()-incremental != wantIncremental {
			t.Fatalf("replace %d (%v): %d rebuilds, %d incremental updates, want %d and %d",
				i, v, dp.Rebuilds()-rebuilds, dp.IncrementalUpdates()-incremental, wantRebuilds, wantIncremental)
		}
		agreesWithInterpreter(t, dp, "after replace "+v.String(), packets...)
	}
}

// BenchmarkRouteMods times one route flow-mod on the 10k-route RIB of the
// l3 use case, with a worker registered, so each mod waits out a grace
// period as it does under traffic.  ns/op and allocs/op are per mod.
//
//   - outside: alternating add and delete of /24s in 240/4, which no route
//     covers (the bench's l3_uniform mods);
//   - inside: the same under populated /8s, inside a route of /8–/16;
//   - replace: a next-hop change of an installed route.
func BenchmarkRouteMods(b *testing.B) {
	uc := workload.L3UseCase(10000, 8, 2016)
	dp, err := Compile(uc.Pipeline, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	w := dp.RegisterWorker()
	defer dp.UnregisterWorker(w)
	rib := dp.Pipeline().Table(0)
	rng := rand.New(rand.NewSource(2016))
	route := func(addr pkt.IPv4) *openflow.Match {
		return openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(addr), 24)
	}
	var outside, inside []*openflow.Match
	for len(outside) < 1024 {
		outside = append(outside, route(pkt.IPv4FromOctets(240+byte(rng.Intn(15)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0)))
	}
	var covering []*openflow.FlowEntry
	for _, e := range rib.Entries() {
		if plen, ok := e.Match.IsPrefix(openflow.FieldIPDst); ok && plen >= 8 && plen <= 16 {
			covering = append(covering, e)
		}
	}
	for len(inside) < 1024 {
		c := covering[rng.Intn(len(covering))]
		base, mask, _ := c.Match.Get(openflow.FieldIPDst)
		m := route(pkt.IPv4(uint32(base) | rng.Uint32()&^uint32(mask)))
		if rib.Entry(24, m) == nil {
			inside = append(inside, m)
		}
	}
	addDelete := func(routes []*openflow.Match) func(int) error {
		return func(i int) error {
			m := routes[i/2%len(routes)]
			if i%2 == 0 {
				return dp.AddFlow(0, openflow.NewEntry(24, m.Clone(), openflow.Apply(openflow.DecTTL(), openflow.Output(uint32(1+i%8)))))
			}
			_, err := dp.DeleteFlow(0, m, 24)
			return err
		}
	}
	installed := slices.Clone(rib.Entries())
	replace := func(i int) error {
		v := installed[i*7919%len(installed)]
		return dp.AddFlow(0, openflow.NewEntry(v.Priority, v.Match.Clone(), openflow.Apply(openflow.DecTTL(), openflow.Output(uint32(1+i%8)))))
	}
	for _, bc := range []struct {
		name string
		mod  func(int) error
	}{{"outside", addDelete(outside)}, {"inside", addDelete(inside)}, {"replace", replace}} {
		b.Run(bc.name, func(b *testing.B) {
			// The first incremental mod mirrors the 64 MB first level.
			for i := 0; i < 2; i++ {
				if err := bc.mod(i); err != nil {
					b.Fatal(err)
				}
			}
			rebuilds := dp.Rebuilds()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.mod(i); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N%2 == 1 && bc.name != "replace" {
				if err := bc.mod(b.N); err != nil { // withdraw the last add
					b.Fatal(err)
				}
			}
			if dp.Rebuilds() != rebuilds {
				b.Fatalf("%d rebuilds", dp.Rebuilds()-rebuilds)
			}
		})
	}
}

// BenchmarkHashMods times one flow-mod on the workloads of the bench's
// l2_uniform_cached and lb_decomposed rows, with a worker registered.  ns/op
// and allocs/op are per mod, alternating the add and the delete of fresh
// entries shaped like the bench's own mods.
//
//   - mac: a learned MAC on L2UseCase(1000, 4), with a 2,048-entry verdict
//     cache and a 256-entry megaflow cache (compound hash, incremental);
//   - backend: one backend half of a new web service on
//     LoadBalancerUseCase(100), compiled with Decompose set as the bench
//     compiles it (the decomposer leaves its one compound-hash stage as is).
func BenchmarkHashMods(b *testing.B) {
	rng := rand.New(rand.NewSource(2016))
	var macs, backends []*openflow.FlowEntry
	for range 1024 {
		macs = append(macs, openflow.NewEntry(100,
			openflow.NewMatch().Set(openflow.FieldEthDst, 0x020001000000+uint64(rng.Intn(1<<20))),
			openflow.Apply(openflow.Output(uint32(1+rng.Intn(4))))))
		half := uint64(rng.Intn(2)) << 31
		backends = append(backends, openflow.NewEntry(20,
			openflow.NewMatch().
				Set(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(203, 0, byte(rng.Intn(256)), byte(rng.Intn(256))))).
				Set(openflow.FieldTCPDst, 80).
				SetMasked(openflow.FieldIPSrc, half, 0x80000000),
			openflow.Apply(openflow.Output(uint32(3+half>>31)))))
	}
	cached := DefaultOptions()
	cached.FlowCache, cached.Megaflow = 2048, 256
	decomposed := DefaultOptions()
	decomposed.Decompose = true
	for _, bc := range []struct {
		name    string
		uc      *workload.UseCase
		opts    Options
		entries []*openflow.FlowEntry
	}{
		{"mac", workload.L2UseCase(1000, 4), cached, macs},
		{"backend", workload.LoadBalancerUseCase(100), decomposed, backends},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dp, err := Compile(bc.uc.Pipeline, bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			w := dp.RegisterWorker()
			defer dp.UnregisterWorker(w)
			mod := func(i int) {
				e := bc.entries[i/2%len(bc.entries)]
				if i%2 == 0 {
					err = dp.AddFlow(0, e)
				} else if n, derr := dp.DeleteFlow(0, e.Match, e.Priority); derr != nil || n != 1 {
					b.Fatalf("delete %d: %d removed, %v", i, n, derr)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mod(i)
			}
			b.StopTimer()
			if b.N%2 == 1 {
				mod(b.N) // withdraw the last add
			}
		})
	}
}

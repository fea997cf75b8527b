// The cycle meter is a single-writer accumulator; the only concurrent entry
// point that charges it is Datapath.Process, which serializes its metered walk
// on a datapath-owned mutex inside the pinned worker's epoch bracket.  This
// test is meaningful under `go test -race`.
package eswitch

import (
	"sync"
	"testing"

	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

func TestMeteredProcessConcurrent(t *testing.T) {
	uc := workload.L3UseCase(1000, 4, 2016)
	meter := cpumodel.NewMeter(cpumodel.DefaultPlatform())
	opts := core.DefaultOptions()
	opts.Meter = meter
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}

	const nFrames, callers, perCaller, mods = 512, 4, 5000, 200
	trace := uc.Trace(nFrames)
	interp := openflow.NewInterpreter(uc.Pipeline.Clone())
	interp.UpdateCounters = false
	want := make([]openflow.Verdict, nFrames)
	for i := range want {
		data, in := trace.Frame(i)
		p := pkt.Packet{Data: pkt.Clone(data), InPort: in}
		interp.Process(&p, &want[i], nil)
	}

	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v openflow.Verdict
			var frame []byte
			for i := 0; i < perCaller; i++ {
				k := (g*perCaller + i) % nFrames
				data, in := trace.Frame(k)
				frame = append(frame[:0], data...) // the routes rewrite the TTL in place
				p := pkt.Packet{Data: frame, InPort: in}
				dp.Process(&p, &v)
				if !verdictsIdentical(&v, &want[k]) {
					t.Errorf("caller %d frame %d: metered Process %s != interpreter %s", g, k, v.String(), want[k].String())
					return
				}
			}
		}()
	}
	// The flapping routes sit in 240.0.0.0/4, outside the generated RIB, so no
	// probed verdict can change; every add or delete swaps the LPM table (and
	// carves a fresh meter region) under the metered walks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < mods; r++ {
			m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(0xf0000000|uint32(r/2)<<8), 24)
			if r%2 == 0 {
				if err := dp.AddFlow(0, openflow.NewEntry(24, m, openflow.Apply(openflow.Output(2)))); err != nil {
					t.Error(err)
					return
				}
			} else if _, err := dp.DeleteFlow(0, m, 24); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := meter.Packets(); got != callers*perCaller {
		t.Fatalf("meter counted %d packets, %d Process calls were made", got, callers*perCaller)
	}
	if meter.CyclesPerPacket() <= 0 {
		t.Fatalf("metered run charged no cycles: %s", meter)
	}
}

package dpdk

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// stagePorts is the fuzzed switch's port count.  Verdicts name ports 0 to
// stagePorts+1, so port 0 and a port above the last one come up as often as
// the ports that exist.
const stagePorts = 3

// shapeVerdict decodes a fuzzed frame into its verdict shape: the low two
// bits of frame[0] are the number of output ports, read from frame[1:4],
// and bit 2 is the punt flag.  A verdict with neither is a drop.
func shapeVerdict(p *pkt.Packet, v *openflow.Verdict) {
	v.Reset()
	f := p.Data
	for i := 0; i < int(f[0]&3); i++ {
		v.OutPorts = append(v.OutPorts, uint32(f[1+i])%(stagePorts+2))
	}
	if f[0]&4 != 0 {
		v.ToController = true
		v.NotePunt(openflow.PuntMiss, 0)
	}
	v.Dropped = !v.Forwarded() && !v.ToController
}

// stageModel is the reference FuzzStageBurst checks one staged burst
// against, written from the WorkerStats contract rather than from stage:
// per port the frames it transmits in order, and the counters.  The punt
// filter's table is direct-mapped on the frame's RSS hash; in a single poll
// every recorded hash is within the window.
func stageModel(frames [][]byte, mode FailMode, filter int) (tx [stagePorts + 1][][]byte, st WorkerStats) {
	seen := map[uint32]uint32{}
	for _, f := range frames {
		var v openflow.Verdict
		shapeVerdict(&pkt.Packet{Data: f}, &v)
		st.Processed++
		if v.ToController {
			st.ToCtrl++
		}
		if v.ToController && mode == FailSecure {
			st.PuntSuppressed++
			st.Dropped++
			continue
		}
		for _, o := range v.OutPorts {
			if o >= 1 && o <= stagePorts {
				tx[o] = append(tx[o], f)
			}
		}
		if v.Forwarded() {
			st.Forwarded++
		} else if !v.ToController {
			st.Dropped++
		}
		if !v.ToController {
			continue
		}
		h := pkt.RSSHash(f)
		slot := h & uint32(filter-1)
		switch prev, ok := seen[slot]; {
		case mode == FailStandalone:
			st.PuntSuppressed++
		case filter > 0 && ok && prev == h:
			st.PuntFiltered++
		default:
			seen[slot] = h
			st.Punts++
		}
	}
	return tx, st
}

// FuzzStageBurst checks the worker's staging against stageModel.  data[0]
// picks the fail mode (mod 3) and, in bit 2, arms a four-slot punt filter;
// every following four bytes are one frame of a single RX burst, which
// shapeVerdict classifies.  After one poll, every port's TX sequence and
// every WorkerStats counter must equal the model's.
func FuzzStageBurst(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0})
	f.Add([]byte{0, 1, 2, 0, 0, 2, 1, 2, 0, 3, 3, 0, 4, 0})
	f.Add([]byte{4, 4, 0, 0, 0, 4, 0, 0, 0, 5, 1, 0, 0, 4, 0, 0, 0})
	f.Add([]byte{1, 5, 2, 0, 0, 1, 1, 0, 0, 4, 9, 9, 9})
	f.Add([]byte{2, 5, 2, 0, 0, 7, 1, 2, 3, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		mode, filter := FailMode(data[0]%3), 0
		if data[0]&4 != 0 {
			filter = 4
		}
		var frames [][]byte
		for b := data[1:]; len(b) >= 4 && len(frames) < DefaultBurst; b = b[4:] {
			frames = append(frames, b[:4:4])
		}

		sw := NewSwitchWithConfig(DatapathFunc(shapeVerdict), SwitchConfig{NumPorts: stagePorts, RingSize: 128, Queues: 1})
		if _, err := sw.ArmPuntRings(64, 0); err != nil {
			t.Fatal(err)
		}
		sw.SetPuntFilter(filter, 1)
		sw.SetFailMode(mode)
		in, _ := sw.Port(1)
		for _, fr := range frames {
			if !in.InjectOn(0, fr) {
				t.Fatal("RX ring refused a frame")
			}
		}
		if n := sw.PollOnce(nil); n != len(frames) {
			t.Fatalf("polled %d of %d frames", n, len(frames))
		}

		tx, want := stageModel(frames, mode, filter)
		for id := uint32(1); id <= stagePorts; id++ {
			p, _ := sw.Port(id)
			got := txFrames(p)
			if len(got) != len(tx[id]) {
				t.Fatalf("port %d transmitted %d frames, model %d", id, len(got), len(tx[id]))
			}
			for i := range got {
				if !bytes.Equal(got[i], tx[id][i]) {
					t.Fatalf("port %d frame %d = %x, model %x", id, i, got[i], tx[id][i])
				}
			}
		}
		if got := sw.Stats(); got != want {
			t.Fatalf("stats %+v\nmodel %+v", got, want)
		}
	})
}

// BenchmarkPollSubstrate times the worker substrate on its own: PollOnce
// over rounds of 256 frames spread across 8 ports with 1,024-slot rings,
// classified by a datapath that only names an output port (the first port,
// or one of all eight), so poll_ns/pkt is the poll loop, TX staging and the
// rings and nothing else.  It is the row bench/ reports as
// dpdk.substrate_ns_pkt, read in seconds and without a traced suite run;
// injecting and draining the rounds are outside the timed region.
func BenchmarkPollSubstrate(b *testing.B) {
	const ports, round = 8, 256
	for _, outs := range []uint32{1, ports} {
		b.Run(fmt.Sprintf("out=%d", outs), func(b *testing.B) {
			sw := NewSwitchWithConfig(DatapathFunc(func(p *pkt.Packet, v *openflow.Verdict) {
				v.Reset()
				v.OutPorts = append(v.OutPorts, 1+uint32(p.Data[0])%outs)
			}), SwitchConfig{NumPorts: ports, RingSize: 1024, Queues: 1})
			frames := make([][]byte, round)
			for i := range frames {
				frames[i] = make([]byte, 64)
				frames[i][0] = byte(i)
			}
			in := sw.Ports()
			var polled time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for i, f := range frames {
					in[i%ports].InjectOn(0, f)
				}
				t0 := time.Now()
				for sw.PollOnce(nil) > 0 {
				}
				polled += time.Since(t0)
				for _, p := range in {
					p.DrainTx()
				}
			}
			b.ReportMetric(float64(polled.Nanoseconds())/float64(b.N*round), "poll_ns/pkt")
		})
	}
}

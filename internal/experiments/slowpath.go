package experiments

import (
	"fmt"
	"time"
)

// FlowSetupRate regenerates the reactive flow-setup figure — the
// repository's companion to Fig. 17/18 for the *reactive* installation path:
// how fast a learning controller can move an unknown workload onto the fast
// path, and what forwarding costs once it has.  For a sweep of station
// counts, the ChaosHarness's closed loop (per-worker punt rings → PacketIns
// over the supervised TCP OpenFlow channel → L2 learning controller →
// FlowMod + PacketOut → fast path) converges an initially-empty pipeline,
// and the row reports the reactive flow-setup rate (learned flows per second
// of convergence wall time), the PacketIn/FlowMod traffic it took, the punt
// accounting, and the post-convergence fast-path rate.
func FlowSetupRate(cfg Config) Result {
	sweep := []int{64, 256, 1024}
	if cfg.Quick {
		sweep = []int{32, 128}
	}
	res := Result{
		ID:     "Flow setup",
		Title:  "reactive L2 learning over the slow path (punt rings -> TCP PacketIn -> FlowMod+PacketOut)",
		Header: []string{"hosts", "setups/s", "passes", "PacketIns", "FlowMods", "ring drops", "post-punt", "post Mpps"},
	}
	for _, hosts := range sweep {
		// A discovery sweep must fit the punt ring, whose usable capacity is
		// one slot short of its size.
		h, err := NewChaosHarness(ChaosConfig{Hosts: hosts, PuntRing: hosts + 1})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		passes, err := h.Converge(64, 10*time.Second)
		if err != nil {
			panic(err)
		}
		setupTime := time.Since(start)
		packets := cfg.packets(hosts)
		start = time.Now()
		_, postPunts := h.MeasureForwarding(packets)
		mpps := float64(packets) / time.Since(start).Seconds() / 1e6
		st := h.SW.Stats()
		res.Rows = append(res.Rows, []string{
			fmtInt(hosts),
			fmt.Sprintf("%.0f", float64(h.Learner.FlowMods())/setupTime.Seconds()),
			fmtInt(passes),
			fmtInt(int(h.Service().Delivered())),
			fmtInt(int(h.Learner.FlowMods())),
			fmtInt(int(st.PuntDrops)),
			fmtInt(int(postPunts)),
			fmtF(mpps),
		})
		h.Close()
	}
	res.Notes = append(res.Notes,
		"setups/s = learned flows / wall-clock convergence time, including TCP framing both ways and the switch-side FlowMod application;",
		"  delivered PacketIns + ring drops == punted packets (drop-on-full rings keep the fast path decoupled);",
		"  post-convergence traffic forwards entirely on the fast path (post-punt == 0) — the learn-then-fast-path story of the paper's reactive use cases")
	return res
}

// Package experiments regenerates every table and figure of the paper's
// evaluation section (§4) from this repository's implementations: for each
// figure it sweeps the same parameters the paper sweeps, runs the ESWITCH
// compiled datapath and the OVS-style flow-caching baseline over the same
// deterministic traffic, and reports both the deterministic cycle-model
// numbers (on the Table 1 platform) and real wall-clock throughput of the Go
// implementations.
//
// The absolute numbers are not expected to match the paper's testbed; the
// shapes (who wins, by what factor, where the curves bend) are.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/workload"
)

// Config scales the sweeps.
type Config struct {
	// MaxFlows caps the active-flow sweep (the paper goes to 1M on the
	// gateway; the default standard scale stops at 100K to keep a full
	// regeneration run in minutes).
	MaxFlows int
	// PacketsPerPoint caps the measurement length per data point.
	PacketsPerPoint int
	// Quick shrinks every sweep for use in tests.
	Quick bool
}

// Standard returns the default experiment scale.
func Standard() Config { return Config{MaxFlows: 100_000, PacketsPerPoint: 400_000} }

// Full returns the paper-scale configuration (1M flows on the gateway).
func Full() Config { return Config{MaxFlows: 1_000_000, PacketsPerPoint: 1_200_000} }

// Quick returns a drastically reduced scale for unit tests.
func Quick() Config { return Config{MaxFlows: 10_000, PacketsPerPoint: 40_000, Quick: true} }

func (c Config) flowSweep() []int {
	sweep := []int{1, 10, 100, 1_000, 10_000, 100_000, 1_000_000}
	if c.Quick {
		sweep = []int{1, 100, 1_000, 10_000}
	}
	out := sweep[:0]
	for _, f := range sweep {
		if f <= c.MaxFlows {
			out = append(out, f)
		}
	}
	return out
}

func (c Config) packets(flows int) int {
	p := 4 * flows
	if p < 20_000 {
		p = 20_000
	}
	if p > c.PacketsPerPoint {
		p = c.PacketsPerPoint
	}
	return p
}

// Result is one regenerated table/figure as printable rows.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s — %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// measurement is one datapath × workload data point.
type measurement struct {
	realPPS   float64
	modelPPS  float64
	cyclesPkt float64
	latencyUs float64
	llcPkt    float64
	levels    ovs.LevelStats
}

// runTrace drives process() over the trace for warmup+measure packets and
// returns wall-clock throughput; the meter (if any) is reset after warmup so
// the model numbers reflect steady state.
func runTrace(trace *pktgen.Trace, process func(*pkt.Packet, *openflow.Verdict), meter *cpumodel.Meter, warmup, measure int, resetStats func()) measurement {
	var p pkt.Packet
	var v openflow.Verdict
	for i := 0; i < warmup; i++ {
		trace.Next(&p)
		process(&p, &v)
	}
	meter.Reset()
	if resetStats != nil {
		resetStats()
	}
	start := time.Now()
	for i := 0; i < measure; i++ {
		trace.Next(&p)
		process(&p, &v)
	}
	elapsed := time.Since(start)
	m := measurement{
		realPPS:   float64(measure) / elapsed.Seconds(),
		modelPPS:  meter.PacketRate(),
		cyclesPkt: meter.CyclesPerPacket(),
		latencyUs: meter.LatencyMicros(),
		llcPkt:    meter.LLCMissesPerPacket(),
	}
	return m
}

// measureESWITCH compiles the use case with ESWITCH and measures one point.
// The sweeps measure one use case many times, so each datapath gets its own
// copy of the pipeline.
func measureESWITCH(uc *workload.UseCase, flows, packets int) measurement {
	opts := core.DefaultOptions()
	opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
	dp, err := core.Compile(uc.Pipeline.Clone(), opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: compile %s: %v", uc.Name, err))
	}
	trace := uc.Trace(flows)
	warmup := flows
	if warmup < 1000 {
		warmup = 1000
	}
	if warmup > packets {
		warmup = packets
	}
	return runTrace(trace, dp.Process, opts.Meter, warmup, packets, nil)
}

// measureBaseline builds the OVS-style baseline over its own copy of the
// pipeline and measures one point.
func measureBaseline(uc *workload.UseCase, flows, packets int) measurement {
	opts := ovs.DefaultOptions()
	opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
	sw, err := ovs.New(uc.Pipeline.Clone(), opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: baseline %s: %v", uc.Name, err))
	}
	trace := uc.Trace(flows)
	warmup := flows
	if warmup < 1000 {
		warmup = 1000
	}
	if warmup > packets {
		warmup = packets
	}
	m := runTrace(trace, sw.ProcessUnlocked, opts.Meter, warmup, packets, sw.ResetStats)
	m.levels = sw.Stats()
	return m
}

func fmtMpps(pps float64) string { return fmt.Sprintf("%.2f", pps/1e6) }
func fmtInt(v int) string        { return fmt.Sprintf("%d", v) }
func fmtF(v float64) string      { return fmt.Sprintf("%.2f", v) }

// packetRateFigure produces one of the Fig. 10–12 style sweeps: rows are
// active-flow counts, columns are ES/OVS model rates per pipeline size.
func packetRateFigure(cfg Config, id, title string, sizes []int, build func(size int) *workload.UseCase) Result {
	res := Result{
		ID:     id,
		Title:  title,
		Header: []string{"active flows"},
	}
	for _, size := range sizes {
		res.Header = append(res.Header, fmt.Sprintf("ES(%d) Mpps", size), fmt.Sprintf("OVS(%d) Mpps", size))
	}
	cases := make([]*workload.UseCase, len(sizes))
	for i, size := range sizes {
		cases[i] = build(size)
	}
	for _, flows := range cfg.flowSweep() {
		row := []string{fmtInt(flows)}
		for _, uc := range cases {
			packets := cfg.packets(flows)
			es := measureESWITCH(uc, flows, packets)
			ob := measureBaseline(uc, flows, packets)
			row = append(row, fmtMpps(es.modelPPS), fmtMpps(ob.modelPPS))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"rates are single-core cycle-model estimates on the Table 1 platform (2 GHz); see the benchmarks for real Go ns/op numbers")
	return res
}

package telemetry

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/hist"
	"eswitch/internal/ipfix"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(
		Family{Name: "test_counter_total", Help: "a counter", Kind: Counter,
			Collect: func(emit func(Sample)) { emit(Sample{Value: 42}) }},
		Family{Name: "test_gauge", Help: "a labeled gauge", Kind: Gauge,
			Collect: func(emit func(Sample)) {
				emit(Sample{Labels: []Label{{Name: "port", Value: "1"}}, Value: 1.5})
				emit(Sample{Labels: []Label{{Name: "port", Value: "2"}}, Value: 2})
			}},
	)
	var h hist.Histogram
	h.Observe(100) // bucket 7 (<=127)
	h.Observe(100)
	h.Observe(1000) // bucket 10 (<=1023)
	r.MustRegister(Family{Name: "test_latency_seconds", Kind: HistogramKind,
		Collect: func(emit func(Sample)) {
			var s hist.Snapshot
			h.Snapshot(&s)
			emit(Sample{Hist: &s})
		}})

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_counter_total a counter",
		"# TYPE test_counter_total counter",
		"test_counter_total 42",
		`test_gauge{port="1"} 1.5`,
		`test_gauge{port="2"} 2`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative: the last finite bucket must already hold all
	// three observations (127-bucket holds 2, 1023-bucket holds 3).
	if !strings.Contains(out, `le="1.27e-07"`) {
		t.Fatalf("expected 127ns bucket bound in seconds:\n%s", out)
	}
	// Sum is rendered in seconds.
	if !strings.Contains(out, "test_latency_seconds_sum 1.2e-06") {
		t.Fatalf("expected sum 1200ns = 1.2e-06s:\n%s", out)
	}
}

// TestRegisterSwitchOneFamilyPerCounter: every dpdk.WorkerCounterTable row is
// exported as exactly one family, and each family's sample is its row's
// field of the one Stats() fold a gather takes.
func TestRegisterSwitchOneFamilyPerCounter(t *testing.T) {
	sw := dpdk.NewSwitchWithConfig(dpdk.DatapathFunc(func(_ *pkt.Packet, v *openflow.Verdict) {
		v.Reset()
		v.OutPorts = append(v.OutPorts, 2)
	}), dpdk.SwitchConfig{NumPorts: 2, Queues: 1})
	p1, _ := sw.Port(1)
	for i := 0; i < 10; i++ {
		p1.InjectOn(dpdk.AutoQueue, make([]byte, pkt.MinPacketLen))
	}
	sw.PollOnce(nil)
	r := NewRegistry()
	RegisterSwitch(r, SwitchSource{Switch: sw})
	samples := map[string][]float64{}
	for _, p := range r.Gather() {
		samples[p.Family] = append(samples[p.Family], p.Value)
	}
	st := sw.Stats()
	for _, row := range dpdk.WorkerCounterTable {
		got := samples[row.Metric]
		if len(got) != 1 || got[0] != float64(*row.Field(&st)) {
			t.Fatalf("%s: samples %v, want one of %d", row.Metric, got, *row.Field(&st))
		}
	}
	if got := samples["eswitch_worker_forwarded_packets_total"]; got[0] != 10 {
		t.Fatalf("forwarded family reads %v after 10 forwarded packets", got)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	f := Family{Name: "dup", Kind: Counter, Collect: func(emit func(Sample)) {}}
	r.MustRegister(f)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.MustRegister(f)
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Family{Name: "up", Kind: Gauge,
		Collect: func(emit func(Sample)) { emit(Sample{Value: 1}) }})
	RegisterGoRuntime(r)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	body := get("/metrics")
	for _, want := range []string{"up 1", "eswitch_go_goroutines", "eswitch_go_heap_alloc_bytes"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), "telemetry") {
		t.Fatal("pprof cmdline endpoint not serving")
	}
}

// fakeFlowSource is a settable flow table for exporter tests.
type fakeFlowSource struct {
	samples []core.FlowSample
}

func (f *fakeFlowSource) FlowSamples(buf []core.FlowSample) []core.FlowSample {
	return append(buf[:0], f.samples...)
}

func flowEntry(dport uint16) *openflow.FlowEntry {
	m := openflow.NewMatch().
		Set(openflow.FieldInPort, 1).
		Set(openflow.FieldIPSrc, 0x0a000001).
		Set(openflow.FieldIPDst, 0x0a000002).
		Set(openflow.FieldIPProto, 6).
		Set(openflow.FieldTCPDst, uint64(dport))
	return openflow.NewEntry(10, m, openflow.Apply(openflow.Output(2)))
}

func decodeAll(t *testing.T, msgs [][]byte) []ipfix.DataRecord {
	t.Helper()
	dec := ipfix.NewDecoder()
	var recs []ipfix.DataRecord
	for _, m := range msgs {
		msg, err := dec.Decode(m)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		recs = append(recs, msg.Records...)
	}
	return recs
}

func TestExporterTimersAndReconciliation(t *testing.T) {
	e1, e2 := flowEntry(80), flowEntry(443)
	src := &fakeFlowSource{}
	sink := &MemorySink{}
	exp := NewFlowExporter(src, sink, ExporterConfig{
		Domain:        7,
		ActiveTimeout: 10 * time.Second,
		IdleTimeout:   5 * time.Second,
	})

	sample := func(e *openflow.FlowEntry, pkts, bytes uint64) core.FlowSample {
		return core.FlowSample{Table: 0, Priority: 10, Match: e.Match, Packets: pkts, Bytes: bytes, Entry: e}
	}
	t0 := time.Unix(1_700_000_000, 0)
	tick := func(at time.Duration, samples ...core.FlowSample) {
		src.samples = samples
		exp.mu.Lock()
		exp.poll(t0.Add(at))
		exp.mu.Unlock()
	}

	// Both flows appear and keep advancing: nothing exports before a timer
	// fires.
	tick(0, sample(e1, 10, 1000), sample(e2, 1, 100))
	tick(1*time.Second, sample(e1, 20, 2000), sample(e2, 1, 100))
	if got := len(decodeAll(t, sink.Messages())); got != 0 {
		t.Fatalf("exported %d records before any timer", got)
	}
	if exp.Tracked() != 2 {
		t.Fatalf("tracked = %d", exp.Tracked())
	}

	// e2 idles past IdleTimeout: its delta exports with the idle reason.
	tick(7*time.Second, sample(e1, 30, 3000), sample(e2, 1, 100))
	recs := decodeAll(t, sink.Messages())
	if len(recs) != 1 {
		t.Fatalf("after idle timeout: %d records", len(recs))
	}
	if r, _ := recs[0].Uint(ipfix.IEFlowEndReason); r != ipfix.EndReasonIdleTimeout {
		t.Fatalf("end reason = %d", r)
	}
	if p, _ := recs[0].Uint(ipfix.IEPacketDeltaCount); p != 1 {
		t.Fatalf("idle delta packets = %d", p)
	}
	if dp, _ := recs[0].Uint(ipfix.IEDestinationTransportPort); dp != 443 {
		t.Fatalf("idle record dport = %d", dp)
	}

	// e1 stays active past ActiveTimeout: its accumulated delta exports
	// with the active reason; the flow keeps being tracked.
	tick(11*time.Second, sample(e1, 40, 4000), sample(e2, 1, 100))
	recs = decodeAll(t, sink.Messages())
	if len(recs) != 2 {
		t.Fatalf("after active timeout: %d records", len(recs))
	}
	if r, _ := recs[1].Uint(ipfix.IEFlowEndReason); r != ipfix.EndReasonActiveTimeout {
		t.Fatalf("end reason = %d", r)
	}
	if p, _ := recs[1].Uint(ipfix.IEPacketDeltaCount); p != 40 {
		t.Fatalf("active delta packets = %d", p)
	}

	// e1 advances once more, then disappears from the table: the remaining
	// delta exports as end-of-flow and the state is dropped.  (A flow that
	// disappears with nothing unexported emits no record — the preceding
	// active/idle export already told the story.)
	tick(11500*time.Millisecond, sample(e1, 45, 4500), sample(e2, 1, 100))
	tick(12*time.Second, sample(e2, 1, 100))
	recs = decodeAll(t, sink.Messages())
	if len(recs) != 3 {
		t.Fatalf("after disappearance: %d records", len(recs))
	}
	if r, _ := recs[2].Uint(ipfix.IEFlowEndReason); r != ipfix.EndReasonEndOfFlow {
		t.Fatalf("end reason = %d", r)
	}
	if p, _ := recs[2].Uint(ipfix.IEPacketDeltaCount); p != 5 {
		t.Fatalf("end-of-flow delta packets = %d", p)
	}
	if exp.Tracked() != 1 {
		t.Fatalf("tracked after removal = %d", exp.Tracked())
	}

	// Close flushes nothing new (e1 fully exported and gone, e2 already
	// idle-flushed with no further delta) — and total exported packets
	// reconcile with the per-flow totals: 45 for e1, 1 for e2.
	src.samples = []core.FlowSample{sample(e2, 1, 100)}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	var totPkts, totBytes uint64
	for _, r := range decodeAll(t, sink.Messages()) {
		p, _ := r.Uint(ipfix.IEPacketDeltaCount)
		b, _ := r.Uint(ipfix.IEOctetDeltaCount)
		totPkts += p
		totBytes += b
	}
	if totPkts != 46 || totBytes != 4600 {
		t.Fatalf("exported totals %d pkts / %d bytes, want 46 / 4600", totPkts, totBytes)
	}
	if exp.Records() != 3 || exp.Errors() != 0 {
		t.Fatalf("records=%d errors=%d", exp.Records(), exp.Errors())
	}
}

func TestExporterFileSinkRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flows.ipfix")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := flowEntry(80)
	src := &fakeFlowSource{samples: []core.FlowSample{{Match: e1.Match, Packets: 5, Bytes: 500, Entry: e1}}}
	exp := NewFlowExporter(src, sink, ExporterConfig{})
	if err := exp.Close(); err != nil { // Close flushes the pending delta
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := SplitFramed(b)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeAll(t, msgs)
	if len(recs) != 1 {
		t.Fatalf("%d records through the file sink", len(recs))
	}
	if p, _ := recs[0].Uint(ipfix.IEPacketDeltaCount); p != 5 {
		t.Fatalf("packets = %d", p)
	}
	if r, _ := recs[0].Uint(ipfix.IEFlowEndReason); r != ipfix.EndReasonForcedEnd {
		t.Fatalf("end reason = %d", r)
	}
}

func TestParseSink(t *testing.T) {
	if _, err := ParseSink("bogus:x"); err == nil {
		t.Fatal("bogus sink spec accepted")
	}
	s, err := ParseSink("file:" + filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestFooterReadsRegistry(t *testing.T) {
	r := NewRegistry()
	constant := func(name string, val float64) Family {
		return Family{Name: name, Kind: Counter,
			Collect: func(emit func(Sample)) { emit(Sample{Value: val}) }}
	}
	r.MustRegister(
		constant("eswitch_worker_processed_packets_total", 1000),
		constant("eswitch_worker_forwarded_packets_total", 900),
		constant("eswitch_worker_dropped_packets_total", 50),
		constant("eswitch_worker_to_controller_packets_total", 50),
		constant("eswitch_tx_backpressure_drops_total", 3),
		constant("eswitch_punts_queued_total", 50),
		constant("eswitch_microflow_hits_total", 750),
		constant("eswitch_microflow_misses_total", 250),
		Family{Name: "eswitch_port_rx_drops_total", Kind: Counter,
			Collect: func(emit func(Sample)) {
				emit(Sample{Labels: []Label{{Name: "port", Value: "1"}}, Value: 7})
			}},
	)
	var h hist.Histogram
	h.Observe(1500)
	r.MustRegister(Family{Name: "eswitch_burst_duration_seconds", Kind: HistogramKind,
		Collect: func(emit func(Sample)) {
			var s hist.Snapshot
			h.Snapshot(&s)
			emit(Sample{Hist: &s})
		}})

	var sb strings.Builder
	RenderFooter(&sb, r, FooterConfig{
		Injected:  1200,
		Slowpath:  true,
		FlowCache: true,
		CacheKey:  "in_port vlan_vid ip_src/32 ip_dst/24",
		Latency:   true,
	})
	out := sb.String()
	for _, want := range []string{
		"injected:  1200 packets (7 rx drops",
		"processed: 1000 packets (900 forwarded, 50 dropped, 50 to controller)",
		"tx:        3 backpressure drops",
		"slowpath:  50 punts queued",
		"flowcache: 750 hits (0 revalidated), 250 misses (0 stale, 0 of them expired), 75.0% hit rate, 0 flushes",
		"           key: in_port vlan_vid ip_src/32 ip_dst/24\n",
		"burst:     p50",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("footer missing %q:\n%s", want, out)
		}
	}
	// A cache that was asked for and never armed says so instead of printing
	// a zero hit ratio.
	sb.Reset()
	RenderFooter(&sb, NewRegistry(), FooterConfig{FlowCache: true, CacheKey: "ip_dst/24", CacheUnarmed: "one stage"})
	if want := "flowcache: not armed (one stage); key: ip_dst/24\n"; !strings.Contains(sb.String(), want) {
		t.Fatalf("footer missing %q:\n%s", want, sb.String())
	}
}

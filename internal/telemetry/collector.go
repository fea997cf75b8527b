package telemetry

import (
	"runtime"
	"strconv"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
)

// SwitchSource bundles the stats surfaces the switch collector reads.  Only
// Switch is required; nil optional fields simply skip their families.
type SwitchSource struct {
	Switch *dpdk.Switch
	// Datapath exposes the compiled-datapath families (table stages,
	// rebuilds, verdict-cache arming, counters and occupancy) when the
	// eswitch datapath is in use.
	Datapath *core.Datapath
	// Supervisor exposes the port fault domain's counters when the port
	// supervisor is running.
	Supervisor *dpdk.PortSupervisor
}

// counterFamily builds a single-sample counter family whose value is read at
// gather time.
func counterFamily(name, help string, read func() float64) Family {
	return Family{Name: name, Help: help, Kind: Counter,
		Collect: func(emit func(Sample)) { emit(Sample{Value: read()}) }}
}

func gaugeFamily(name, help string, read func() float64) Family {
	return Family{Name: name, Help: help, Kind: Gauge,
		Collect: func(emit func(Sample)) { emit(Sample{Value: read()}) }}
}

// RegisterSwitch registers the full switch metric surface: every folded
// counter in Stats() (one family per dpdk.WorkerCounterTable row), per-port
// I/O counters and link states, the compiled datapath's table families and
// verdict-cache counters (core.FlowCacheStats), the port supervisor's
// fault-domain counters, and the burst-duration and punt-latency histograms.
// All collectors run on the scraping goroutine and read only atomic mirrors
// or the update mutex — never worker-private state.
func RegisterSwitch(r *Registry, src SwitchSource) {
	sw := src.Switch
	// One Stats() fold per gather, shared by the worker-counter families:
	// Gather holds the registry lock across families, so a single snapshot
	// read by the first family keeps every derived sample consistent.
	var st dpdk.WorkerStats
	for i, c := range dpdk.WorkerCounterTable {
		r.MustRegister(Family{Name: c.Metric, Help: c.Help, Kind: Counter,
			Collect: func(emit func(Sample)) {
				if i == 0 {
					st = sw.Stats()
				}
				emit(Sample{Value: float64(*c.Field(&st))})
			}})
	}
	r.MustRegister(
		counterFamily("eswitch_punts_queued_total", "ToController verdicts copied into a slow-path punt ring.", func() float64 { return float64(st.Punts) }),
		counterFamily("eswitch_punt_ring_drops_total", "Punts lost to a full ring.", func() float64 { return float64(st.PuntDrops) }),
		gaugeFamily("eswitch_ports_down", "Ports currently held Down by the link-state machine.", func() float64 { return float64(st.PortsDown) }),
		gaugeFamily("eswitch_ports_flapping", "Ports currently labeled Flapping.", func() float64 { return float64(st.PortsFlapping) }),
		counterFamily("eswitch_reinjected_punts_total", "PacketOut output:TABLE re-injections.", func() float64 { return float64(sw.ReinjectPunts()) }),
	)

	portFamily := func(name, help string, v func(dpdk.PortStats) uint64) Family {
		return Family{Name: name, Help: help, Kind: Counter,
			Collect: func(emit func(Sample)) {
				for _, p := range sw.Ports() {
					emit(Sample{
						Labels: []Label{{Name: "port", Value: strconv.FormatUint(uint64(p.ID), 10)}},
						Value:  float64(v(p.Stats())),
					})
				}
			}}
	}
	r.MustRegister(
		portFamily("eswitch_port_rx_packets_total", "Frames received per port.", func(s dpdk.PortStats) uint64 { return s.RxPackets }),
		portFamily("eswitch_port_tx_packets_total", "Frames transmitted per port.", func(s dpdk.PortStats) uint64 { return s.TxPackets }),
		portFamily("eswitch_port_rx_drops_total", "RX drops per port.", func(s dpdk.PortStats) uint64 { return s.RxDrops }),
		portFamily("eswitch_port_tx_drops_total", "TX drops per port.", func(s dpdk.PortStats) uint64 { return s.TxDrops }),
		portFamily("eswitch_port_rx_errors_total", "Non-backpressure RX I/O errors per port.", func(s dpdk.PortStats) uint64 { return s.RxErrors }),
		portFamily("eswitch_port_tx_errors_total", "Non-backpressure TX I/O errors per port.", func(s dpdk.PortStats) uint64 { return s.TxErrors }),
		Family{
			Name: "eswitch_port_link_state",
			Help: "Per-port link state (0=up, 1=down, 2=flapping).",
			Kind: Gauge,
			Collect: func(emit func(Sample)) {
				for _, p := range sw.Ports() {
					emit(Sample{
						Labels: []Label{{Name: "port", Value: strconv.FormatUint(uint64(p.ID), 10)}},
						Value:  float64(p.LinkState()),
					})
				}
			},
		},
	)

	r.MustRegister(
		Family{
			Name: "eswitch_burst_duration_seconds",
			Help: "Worker burst classification duration (armed by latency sampling).",
			Kind: HistogramKind,
			Collect: func(emit func(Sample)) {
				s := sw.BurstLatency()
				emit(Sample{Hist: &s})
			},
		},
		Family{
			Name: "eswitch_punt_latency_seconds",
			Help: "Punt-ring queueing latency from worker push to slow-path pop (armed by latency sampling).",
			Kind: HistogramKind,
			Collect: func(emit func(Sample)) {
				s := sw.PuntLatency()
				emit(Sample{Hist: &s})
			},
		},
	)

	if dp := src.Datapath; dp != nil {
		r.MustRegister(
			counterFamily("eswitch_datapath_rebuilds_total", "Full datapath recompilations.", func() float64 { return float64(dp.Rebuilds()) }),
			counterFamily("eswitch_datapath_incremental_updates_total", "Flow-mods applied without a full rebuild.", func() float64 { return float64(dp.IncrementalUpdates()) }),
			Family{
				Name: "eswitch_table_entries",
				Help: "Installed flow entries per compiled table.",
				Kind: Gauge,
				Collect: func(emit func(Sample)) {
					for _, stg := range dp.Stages() {
						emit(Sample{
							Labels: []Label{
								{Name: "table", Value: strconv.Itoa(int(stg.ID))},
								{Name: "template", Value: stg.Template.String()},
							},
							Value: float64(stg.Entries),
						})
					}
				},
			},
		)
		// One FlowCacheStats fold per gather, shared like st above.
		var fcs core.FlowCacheStats
		r.MustRegister(
			gaugeFamily("eswitch_flowcache_armed", "1 while the compiled pipeline arms the verdict cache (Options.FlowCache set, every field it matches inside the flow key, some path deeper than one probe), else 0.", func() float64 {
				if dp.FlowCacheEnabled() {
					return 1
				}
				return 0
			}),
			Family{Name: "eswitch_microflow_hits_total",
				Help: "Microflow verdict-cache hits.",
				Kind: Counter,
				Collect: func(emit func(Sample)) {
					fcs = dp.FlowCacheStats()
					emit(Sample{Value: float64(fcs.Hits)})
				}},
			counterFamily("eswitch_microflow_misses_total", "Microflow verdict-cache misses.", func() float64 { return float64(fcs.Misses) }),
			counterFamily("eswitch_microflow_stale_total", "Microflow misses that found a key whose verdict a flow-mod since may have changed.", func() float64 { return float64(fcs.Stale) }),
			counterFamily("eswitch_microflow_revalidated_total", "Microflow hits on a retired-generation key no flow-mod since had touched.", func() float64 { return float64(fcs.Revalidated) }),
			counterFamily("eswitch_microflow_expired_total", "Microflow stale probes whose entry had sat through more flow-mods than the flow-mod log holds.", func() float64 { return float64(fcs.Expired) }),
			counterFamily("eswitch_cache_flushes_total", "Barrier flow-mods: mutations that staled every older cache entry.", func() float64 { return float64(fcs.Flushes) }),
			counterFamily("eswitch_microflow_installs_total", "Verdict-cache installs (fills plus victims).", func() float64 { return float64(fcs.Installs) }),
			counterFamily("eswitch_microflow_fills_total", "Verdict-cache installs into empty slots.", func() float64 { return float64(fcs.Fills) }),
			counterFamily("eswitch_microflow_victims_total", "Verdict-cache installs that displaced a live entry.", func() float64 { return float64(fcs.Victims) }),
			gaugeFamily("eswitch_microflow_capacity_slots", "Verdict-cache slots summed over the live workers that have armed one.", func() float64 { return float64(fcs.Capacity) }),
		)
	}

	if ps := src.Supervisor; ps != nil {
		r.MustRegister(
			counterFamily("eswitch_port_link_transitions_total", "Link-state transitions made by the port supervisor.", func() float64 { return float64(ps.Transitions()) }),
			counterFamily("eswitch_port_reopens_total", "Backend reopen attempts.", func() float64 { return float64(ps.Reopens()) }),
			counterFamily("eswitch_port_reopen_failures_total", "Backend reopen attempts that failed.", func() float64 { return float64(ps.ReopenFails()) }),
			counterFamily("eswitch_worker_stalls_total", "Worker-stall verdicts issued by the watchdog.", func() float64 { return float64(ps.Stalls()) }),
		)
	}
}

// RegisterExporter registers a flow exporter's self-metrics.
func RegisterExporter(r *Registry, e *FlowExporter) {
	r.MustRegister(
		counterFamily("eswitch_ipfix_messages_total", "IPFIX messages emitted to the export sink.", func() float64 { return float64(e.Messages()) }),
		counterFamily("eswitch_ipfix_records_total", "IPFIX flow data records emitted.", func() float64 { return float64(e.Records()) }),
		counterFamily("eswitch_ipfix_export_errors_total", "Sink write errors.", func() float64 { return float64(e.Errors()) }),
		gaugeFamily("eswitch_ipfix_tracked_flows", "Flow entries currently tracked for export.", func() float64 { return float64(e.Tracked()) }),
	)
}

// RegisterGoRuntime registers Go runtime families (heap, GC, goroutines).
func RegisterGoRuntime(r *Registry) {
	var ms runtime.MemStats
	r.MustRegister(
		Family{
			Name: "eswitch_go_heap_alloc_bytes",
			Help: "Bytes of allocated heap objects.",
			Kind: Gauge,
			Collect: func(emit func(Sample)) {
				// One ReadMemStats per gather feeds the sibling families
				// (the registry lock is held across all of them).
				runtime.ReadMemStats(&ms)
				emit(Sample{Value: float64(ms.HeapAlloc)})
			},
		},
		gaugeFamily("eswitch_go_heap_sys_bytes", "Heap memory obtained from the OS.", func() float64 { return float64(ms.HeapSys) }),
		counterFamily("eswitch_go_gc_cycles_total", "Completed GC cycles.", func() float64 { return float64(ms.NumGC) }),
		counterFamily("eswitch_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", func() float64 { return float64(ms.PauseTotalNs) / 1e9 }),
		counterFamily("eswitch_go_alloc_bytes_total", "Cumulative bytes allocated.", func() float64 { return float64(ms.TotalAlloc) }),
		gaugeFamily("eswitch_go_goroutines", "Live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) }),
	)
}

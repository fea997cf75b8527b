package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"eswitch/internal/hist"
)

// FooterConfig shapes the stats footer around the run's static context —
// everything numeric comes out of the registry, so the footer and the
// /metrics endpoint can never disagree.
type FooterConfig struct {
	// RealIO selects the per-port backend lines over the generator summary.
	RealIO bool
	// Injected is the generator's producer-side packet count (the producer
	// is the main goroutine, not the switch, so it isn't a switch metric).
	Injected uint64
	// PortDetail renders a port's static context ("[ring, link up]"); nil
	// omits the bracket.
	PortDetail func(port uint64) string
	// Slowpath and FlowCache gate their sections (configured features only
	// — the registry reports zeros either way).  CacheKey is the compiled
	// cache key's field list and CacheUnarmed why the pipeline does not arm
	// the cache (core.Datapath.FlowCacheKey), printed in the flowcache
	// section.
	Slowpath     bool
	FlowCache    bool
	CacheKey     string
	CacheUnarmed string
	// Latency gates the burst/punt latency lines (latency sampling armed).
	Latency bool
}

// footerView indexes one Gather pass for the renderer.
type footerView struct {
	scalar map[string]float64
	ports  map[string]map[uint64]float64 // family -> port -> value
	hists  map[string]*hist.Snapshot
}

func gatherFooter(r *Registry) *footerView {
	v := &footerView{
		scalar: map[string]float64{},
		ports:  map[string]map[uint64]float64{},
		hists:  map[string]*hist.Snapshot{},
	}
	for _, p := range r.Gather() {
		if p.Hist != nil {
			if h := v.hists[p.Family]; h != nil {
				h.AddSnapshot(p.Hist)
			} else {
				cp := *p.Hist
				v.hists[p.Family] = &cp
			}
			continue
		}
		port, isPort := uint64(0), false
		for _, l := range p.Labels {
			if l.Name == "port" {
				if n, err := strconv.ParseUint(l.Value, 10, 64); err == nil {
					port, isPort = n, true
				}
			}
		}
		if isPort {
			m := v.ports[p.Family]
			if m == nil {
				m = map[uint64]float64{}
				v.ports[p.Family] = m
			}
			m[port] += p.Value
		}
		v.scalar[p.Family] += p.Value
	}
	return v
}

func (v *footerView) u(family string) uint64 { return uint64(v.scalar[family]) }

func (v *footerView) port(family string, port uint64) uint64 {
	return uint64(v.ports[family][port])
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// quantiles renders a histogram as p50/p99/mean in microseconds.
func quantiles(h *hist.Snapshot) string {
	if h == nil || h.Count() == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50 %s, p99 %s, mean %s over %d samples",
		usec(h.Quantile(0.50)), usec(h.Quantile(0.99)), usec(uint64(h.Mean())), h.Count())
}

func usec(ns uint64) string {
	return fmt.Sprintf("%.1fus", float64(ns)/1e3)
}

// RenderFooter writes the eswitchd end-of-run stats footer from the
// registry: the single renderer behind every run mode (generator, trace
// replay, real I/O), reading the exact samples /metrics serves.
func RenderFooter(w io.Writer, r *Registry, cfg FooterConfig) {
	v := gatherFooter(r)

	if cfg.RealIO {
		fmt.Fprintln(w)
		ports := make([]uint64, 0, len(v.ports["eswitch_port_rx_packets_total"]))
		for p := range v.ports["eswitch_port_rx_packets_total"] {
			ports = append(ports, p)
		}
		sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
		for _, p := range ports {
			detail := ""
			if cfg.PortDetail != nil {
				detail = " " + cfg.PortDetail(p)
			}
			fmt.Fprintf(w, "port %d:    %d rx, %d tx (%d rx drops, %d tx drops)%s\n",
				p,
				v.port("eswitch_port_rx_packets_total", p), v.port("eswitch_port_tx_packets_total", p),
				v.port("eswitch_port_rx_drops_total", p), v.port("eswitch_port_tx_drops_total", p),
				detail)
		}
	} else {
		fmt.Fprintf(w, "\ninjected:  %d packets (%d rx drops, %d tx drops)\n",
			cfg.Injected, v.u("eswitch_port_rx_drops_total"), v.u("eswitch_port_tx_drops_total"))
	}
	fmt.Fprintf(w, "processed: %d packets (%d forwarded, %d dropped, %d to controller)\n",
		v.u("eswitch_worker_processed_packets_total"), v.u("eswitch_worker_forwarded_packets_total"),
		v.u("eswitch_worker_dropped_packets_total"), v.u("eswitch_worker_to_controller_packets_total"))
	fmt.Fprintf(w, "tx:        %d backpressure drops\n", v.u("eswitch_tx_backpressure_drops_total"))
	fmt.Fprintf(w, "ports:     %d down, %d flapping; %d link transitions, %d reopens (%d failed), %d worker stalls\n",
		v.u("eswitch_ports_down"), v.u("eswitch_ports_flapping"),
		v.u("eswitch_port_link_transitions_total"), v.u("eswitch_port_reopens_total"),
		v.u("eswitch_port_reopen_failures_total"), v.u("eswitch_worker_stalls_total"))
	if n := v.u("eswitch_datapath_panics_total"); n > 0 {
		fmt.Fprintf(w, "contained: %d datapath panics, %d frames quarantined\n",
			n, v.u("eswitch_quarantined_frames_total"))
	}
	if cfg.Slowpath {
		// Punts+PuntDrops+PuntSuppressed+PuntFiltered == ToCtrl: every
		// punted verdict is exactly one ring push attempt, a degraded-mode
		// suppression, or a storm-filter hit (WorkerStats.CheckInvariants).
		fmt.Fprintf(w, "slowpath:  %d punts queued, %d ring drops, %d suppressed (fail mode), %d storm-filtered, %d re-injected punts cut\n",
			v.u("eswitch_punts_queued_total"), v.u("eswitch_punt_ring_drops_total"),
			v.u("eswitch_punts_suppressed_total"), v.u("eswitch_punts_filtered_total"),
			v.u("eswitch_reinjected_punts_total"))
	}
	hits, misses := v.u("eswitch_microflow_hits_total"), v.u("eswitch_microflow_misses_total")
	if cfg.FlowCache && cfg.CacheUnarmed != "" && hits+misses == 0 {
		// A zero hit ratio explained: the cache was asked for and never armed.
		fmt.Fprintf(w, "flowcache: not armed (%s); key: %s\n", cfg.CacheUnarmed, cfg.CacheKey)
	} else if cfg.FlowCache {
		fmt.Fprintf(w, "flowcache: %d hits (%d revalidated), %d misses (%d stale, %d of them expired), %.1f%% hit rate, %d flushes\n",
			hits, v.u("eswitch_microflow_revalidated_total"), misses, v.u("eswitch_microflow_stale_total"),
			v.u("eswitch_microflow_expired_total"), pct(hits, hits+misses), v.u("eswitch_cache_flushes_total"))
		fills, capacity := v.u("eswitch_microflow_fills_total"), v.u("eswitch_microflow_capacity_slots")
		if capacity > 0 {
			live := fills
			if live > capacity {
				live = capacity
			}
			fmt.Fprintf(w, "           %d installs (%d fills, %d victims), ~%.1f%% of %d slots filled\n",
				v.u("eswitch_microflow_installs_total"), fills, v.u("eswitch_microflow_victims_total"),
				pct(live, capacity), capacity)
		} else {
			fmt.Fprintf(w, "           %d installs (%d fills, %d victims)\n",
				v.u("eswitch_microflow_installs_total"), fills, v.u("eswitch_microflow_victims_total"))
		}
		fmt.Fprintf(w, "           key: %s\n", cfg.CacheKey)
	}
	if cfg.Latency {
		fmt.Fprintf(w, "burst:     %s\n", quantiles(v.hists["eswitch_burst_duration_seconds"]))
		if cfg.Slowpath {
			fmt.Fprintf(w, "puntlat:   %s\n", quantiles(v.hists["eswitch_punt_latency_seconds"]))
		}
	}
	if n := v.u("eswitch_ipfix_messages_total"); n > 0 {
		fmt.Fprintf(w, "ipfix:     %d messages, %d flow records exported (%d sink errors)\n",
			n, v.u("eswitch_ipfix_records_total"), v.u("eswitch_ipfix_export_errors_total"))
	}
}

// Command eswitch-pktgen is the standalone traffic generator: it synthesizes
// one of the paper's traffic mixes, optionally pushes it through a compiled
// ESWITCH datapath in loopback mode (the way the paper's NFPA measurements
// drive the system under test), and reports the achieved packet rate.
//
// Usage:
//
//	eswitch-pktgen [-usecase gateway] [-flows 10000] [-packets 1000000]
//	               [-dist uniform|zipf] [-s 1.1] [-seed 1] [-loopback]
//	               [-pcap out.pcap] [-pcap-imix] [-pcap-mean-gap 1us]
//
// -dist selects the flow-popularity model: "uniform" sweeps the active flow
// set round-robin (the paper's worst-case locality), "zipf" draws flows from
// a seeded Zipf(s) distribution — the realistic regime where a small head of
// flows carries most of the traffic.
//
// -pcap exports the generated stream as a classic libpcap capture instead of
// rate-measuring it: -packets records, timestamps drawn from a seeded
// exponential inter-arrival model with mean -pcap-mean-gap, and -pcap-imix
// zero-pads frames to the classic 7:4:1 IMIX size mix.  The result feeds the
// trace-replay backend (eswitchd -backend pcap:out.pcap) or any pcap tool.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/workload"
)

func main() {
	useCase := flag.String("usecase", "gateway", "use case: l2, l3, loadbalancer, gateway")
	flows := flag.Int("flows", 10000, "active flow count")
	packets := flag.Int("packets", 1_000_000, "packets to generate")
	dist := flag.String("dist", "uniform", "flow popularity: uniform or zipf")
	zipfS := flag.Float64("s", 1.1, "Zipf exponent for -dist zipf (must be > 1)")
	seed := flag.Int64("seed", 1, "seed for the Zipf popularity schedule")
	loopback := flag.Bool("loopback", true, "process the generated packets through a compiled ESWITCH datapath")
	pcapOut := flag.String("pcap", "", "export the generated stream to this classic libpcap file instead of rate-measuring")
	pcapIMIX := flag.Bool("pcap-imix", false, "zero-pad exported frames to the 7:4:1 IMIX size mix (64/594/1518 on-wire)")
	pcapMeanGap := flag.Duration("pcap-mean-gap", time.Microsecond, "mean exponential inter-arrival gap stamped into the export")
	flag.Parse()

	var uc *workload.UseCase
	switch *useCase {
	case "l2":
		uc = workload.L2UseCase(1000, 4)
	case "l3":
		uc = workload.L3UseCase(10000, 8, 2016)
	case "loadbalancer":
		uc = workload.LoadBalancerUseCase(100)
	case "gateway":
		uc = workload.GatewayUseCase(workload.DefaultGatewayConfig())
	default:
		fmt.Fprintf(os.Stderr, "unknown use case %q\n", *useCase)
		os.Exit(2)
	}

	trace := uc.Trace(*flows)
	switch *dist {
	case "uniform":
	case "zipf":
		if err := trace.UseZipf(*zipfS, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown distribution %q (want uniform or zipf)\n", *dist)
		os.Exit(2)
	}
	fmt.Printf("pktgen: %q traffic, %d active flows (%s popularity), %d packets\n",
		*useCase, trace.NumFlows(), *dist, *packets)

	if *pcapOut != "" {
		f, err := os.Create(*pcapOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcap export: %v\n", err)
			os.Exit(1)
		}
		err = pktgen.ExportPcap(f, trace, pktgen.PcapExportConfig{
			Packets: *packets,
			MeanGap: *pcapMeanGap,
			IMIX:    *pcapIMIX,
			Seed:    *seed,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcap export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("exported %d packets to %s (imix=%v, mean gap %s)\n", *packets, *pcapOut, *pcapIMIX, *pcapMeanGap)
		return
	}

	var process func(*pkt.Packet, *openflow.Verdict)
	if *loopback {
		opts := core.DefaultOptions()
		dp, err := core.Compile(uc.Pipeline, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compile: %v\n", err)
			os.Exit(1)
		}
		process = dp.Process
	}

	var p pkt.Packet
	var v openflow.Verdict
	bytes := 0
	forwarded, dropped, punted := 0, 0, 0
	start := time.Now()
	for i := 0; i < *packets; i++ {
		trace.Next(&p)
		bytes += len(p.Data)
		if process != nil {
			process(&p, &v)
			switch {
			case v.Forwarded():
				forwarded++
			case v.ToController:
				punted++
			default:
				dropped++
			}
		}
	}
	elapsed := time.Since(start)
	rate := float64(*packets) / elapsed.Seconds()
	fmt.Printf("generated %d packets (%d bytes) in %.3fs: %.2f Mpps, %.2f Gbit/s wire-equivalent\n",
		*packets, bytes, elapsed.Seconds(), rate/1e6, rate*8*64/1e9)
	if process != nil {
		fmt.Printf("loopback verdicts: %d forwarded, %d dropped, %d to controller\n", forwarded, dropped, punted)
	}
}

package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// endToEndBounds are the regression bounds of the end-to-end metrics, as a
// share of the median (BENCHMARK.json carries the same numbers; the tests
// keep the two in step).
var endToEndBounds = map[string]float64{
	"fwd_mpps":   0.15,
	"flowmod_us": 0.25,
	"setup_s":    0.25,
	"heap_mb":    0.03,
}

// selfCheck is the -aa mode: the same code measured n times.  For every
// metric x workload it prints min / median / max and the largest relative
// deviation between two runs, (max-min)/median, against the metric's bound,
// and fails when any exceeds it.
func selfCheck(cfg config, n int) int {
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	for i := 0; i < n; i++ {
		fmt.Printf("self-check run %d of %d\n", i+1, n)
		outs, err := suite(cfg, io.Discard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		for name, o := range outs {
			if !o.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", name, o.Failed, o.Attempted)
				return 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range o.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	metrics := make([]string, 0, len(endToEndBounds))
	for m := range endToEndBounds {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	exceeded := 0
	fmt.Printf("\n%-20s %-15s %12s %12s %12s %9s %7s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, name := range cfg.workloads {
		for _, m := range metrics {
			v := sortedCopy(values[name][m])
			spread := (v[len(v)-1] - v[0]) / quantile(v, 0.5)
			verdict := ""
			if spread > endToEndBounds[m] {
				verdict = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-20s %-15s %12.6g %12.6g %12.6g %8.2f%% %6.0f%%%s\n",
				name, m, v[0], quantile(v, 0.5), v[len(v)-1], 100*spread, 100*endToEndBounds[m], verdict)
		}
	}
	if exceeded > 0 {
		fmt.Printf("\n%d metric x workload pairs moved by more than their bound between runs of the same code\n", exceeded)
		return 1
	}
	fmt.Println("\nevery metric stayed inside its bound")
	return 0
}

// Command eswitch-experiments regenerates the tables and figures of the
// paper's evaluation section from this repository's implementations and
// prints them as text tables.
//
// Usage:
//
//	eswitch-experiments [-scale quick|standard|full] [-figure all|table1|fig3|fig9|...|fig20|decomposition|flowsetup]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"eswitch/internal/experiments"
)

func main() {
	scale := flag.String("scale", "standard", "experiment scale: quick, standard (100K flows) or full (1M flows)")
	figure := flag.String("figure", "all", "which figure to regenerate (all, table1, fig3, fig9...fig20, decomposition, flowsetup)")
	flag.Parse()

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Quick()
	case "standard":
		cfg = experiments.Standard()
	case "full":
		cfg = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	runners := map[string]func(experiments.Config) experiments.Result{
		"table1":        experiments.Table1,
		"fig3":          experiments.Fig3,
		"fig9":          experiments.Fig9,
		"fig10":         experiments.Fig10,
		"fig11":         experiments.Fig11,
		"fig12":         experiments.Fig12,
		"fig13":         experiments.Fig13,
		"fig14":         experiments.Fig14,
		"fig15":         experiments.Fig15,
		"fig16":         experiments.Fig16,
		"fig17":         experiments.Fig17,
		"fig18":         experiments.Fig18,
		"fig19":         experiments.Fig19,
		"fig20":         experiments.Fig20,
		"decomposition": experiments.Decomposition,
		"flowsetup":     experiments.FlowSetupRate,
	}

	start := time.Now()
	if *figure == "all" {
		for _, r := range experiments.All(cfg) {
			fmt.Println(r)
		}
	} else {
		run, ok := runners[strings.ToLower(*figure)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
			os.Exit(2)
		}
		fmt.Println(run(cfg))
	}
	fmt.Printf("completed in %.1fs (scale %s)\n", time.Since(start).Seconds(), *scale)
}

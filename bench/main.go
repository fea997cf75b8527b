// Command bench is the repository benchmark: five closed-loop switch
// workloads driven from one locked OS thread through the real path
// (workload use case -> core.Compile -> dpdk.NewSwitchWithConfig ->
// InjectOn / PollOnce / DrainTx), four end-to-end metrics, and — in a
// separate traced run — a per-layer ledger timed from outside the modules.
// See README.md in this directory for definitions and the noise rules.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Run shape.
const (
	// defaultSeconds is BENCHMARK.json's run_seconds, the scale at which the
	// workloads' unit counts are stated: at least this much of a run is
	// measurement (timed phases, flow-mod probes, timed set-ups).
	defaultSeconds = 12
	instances      = 5
	// tracedInstances is the instance count of a traced run: the first is
	// traced and feeds the ledger, the second runs untraced to price tracing.
	tracedInstances = 2
	// traceDir is where a traced run writes its span files, relative to the
	// checkout root the benchmark is run from.
	traceDir = "bench/out"
)

type config struct {
	workloads []string
	seed      int64
	seconds   int
	trace     bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// normaliseArgs lets "-trace 0" / "-trace 1" (the driver's spelling) mean
// what "-trace=0" / "-trace=1" mean to the flag package's boolean flags.
func normaliseArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 2016, "seed of the generated pipelines, traffic and flow-mods")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds per run (scales the fixed unit counts)")
	trace := fs.Bool("trace", false, "traced run: record spans and print the per-layer ledger")
	aa := fs.Int("aa", 0, "self-check: run the suite N times and compare the runs against the bounds")
	if err := fs.Parse(normaliseArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace}
	if *workloadFlag == "all" {
		for _, sp := range specs {
			cfg.workloads = append(cfg.workloads, sp.name)
		}
	} else {
		if specByName(*workloadFlag) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
			return 2
		}
		cfg.workloads = []string{*workloadFlag}
	}
	if *aa > 0 {
		return selfCheck(cfg, *aa)
	}
	outs, err := suite(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := resultLine(cfg.workloads, outs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// resultLine is the last line of the output.  For one workload it is the
// workload's outcome; for several, the outcomes merged with every metric
// name prefixed by its workload.
func resultLine(names []string, outs map[string]outcome) (string, error) {
	if len(names) == 1 {
		return jsonLine(outs[names[0]])
	}
	all := outcome{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		o := outs[n]
		all.Correct = all.Correct && o.Correct
		all.Attempted += o.Attempted
		all.Failed += o.Failed
		for k, m := range o.Metrics {
			all.Metrics[n+"/"+k] = m
		}
	}
	return jsonLine(all)
}

// suite runs the configured workloads once and returns each outcome.  All
// measurement happens on this one locked OS thread.
func suite(cfg config, w io.Writer) (map[string]outcome, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	sh := readShape(cfg.seed)
	stealBefore := readSteal()
	cal := newCalibrator()
	runners := make([]*runner, len(cfg.workloads))
	walls := make([]time.Duration, len(cfg.workloads))
	for i, name := range cfg.workloads {
		sp := specByName(name)
		runners[i] = &runner{sp: sp, seed: cfg.seed, scale: fullScale(sp, cfg.seconds), cal: cal}
	}
	outs := map[string]outcome{}
	ledgers := map[string]map[string]metric{}
	if cfg.trace {
		for i, r := range runners {
			t0 := time.Now()
			layer, err := r.tracedRun(traceDir, w)
			if err != nil {
				return nil, err
			}
			walls[i] = time.Since(t0)
			ledgers[r.sp.name] = layer
		}
	} else {
		// Instance-major: instance 1 of every workload, then instance 2, ...
		// so slow drift of the machine hits all workloads alike.
		for k := 0; k < instances; k++ {
			for i, r := range runners {
				t0 := time.Now()
				if err := r.runInstance(false, false); err != nil {
					return nil, err
				}
				walls[i] += time.Since(t0)
			}
		}
	}
	fmt.Fprintln(w, sh.String())
	fmt.Fprintf(w, "steal share over the run: %.2f%%\n", 100*stealShare(stealBefore, readSteal()))
	for i, r := range runners {
		metrics := r.endToEnd()
		attempted, failed := r.counts()
		fmt.Fprintf(w, "\n== %s  (%d instances x %d units, timed phase %.2fs each, wall %.1fs, seed %d)\n",
			r.sp.name, len(r.res), r.units,
			across(r.res, func(res *instanceResult) float64 { return res.phaseWall.Seconds() }),
			walls[i].Seconds(), cfg.seed)
		var perInst []string
		for _, res := range r.untraced() {
			perInst = append(perInst, fmt.Sprintf("%.3g", unitFrames/fastOf(res.units)*1e3))
		}
		fmt.Fprintf(w, "  host.calib_ns %.0f ns; fwd_mpps per untraced instance: %s\n", r.calibNs(), strings.Join(perInst, " "))
		printMetrics(w, "  end-to-end (untraced instances):", metrics)
		fmt.Fprintf(w, "  attempted %d  failed %d\n", attempted, failed)
		r.printFailures(w)
		if cfg.trace {
			printMetrics(w, "  per-layer:", ledgers[r.sp.name])
			metrics = ledgers[r.sp.name]
		}
		outs[r.sp.name] = r.outcomeOf(metrics)
	}
	return outs, nil
}

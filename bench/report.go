package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line of one workload run, in the shape the driver
// reads: exactly these four keys.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metric names and units (BENCHMARK.json lists the same).
var endToEndUnits = map[string]string{
	"fwd_mpps":   "Mpps",
	"flowmod_us": "us",
	"setup_s":    "s",
	"heap_mb":    "MB",
}

// untraced are the instances that ran with tracing off: all of them in a
// plain run, all but the first in a traced run.  End-to-end metrics come
// from these only.
func (r *runner) untraced() []*instanceResult {
	if r.rec != nil {
		return r.res[1:]
	}
	return r.res
}

// across is the median over the given instances of one statistic each.
func across(insts []*instanceResult, f func(*instanceResult) float64) float64 {
	v := make([]float64, len(insts))
	for i, res := range insts {
		v[i] = f(res)
	}
	return median(v)
}

// pooled concatenates one sample slice per instance.
func pooled(insts []*instanceResult, pick func(*instanceResult) []float64) []float64 {
	var all []float64
	for _, res := range insts {
		all = append(all, pick(res)...)
	}
	return all
}

// unitNs is the forwarding time of one unit: the fast quantile of the unit
// times pooled over the instances.
func unitNs(insts []*instanceResult) float64 {
	return fastOf(pooled(insts, func(res *instanceResult) []float64 { return res.units }))
}

// endToEnd derives the four end-to-end metrics of the run.
func (r *runner) endToEnd() map[string]metric {
	insts := r.untraced()
	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{Value: v, Unit: endToEndUnits[name]} }
	put("fwd_mpps", unitFrames/unitNs(insts)*1e3)
	put("flowmod_us", fastOf(pooled(insts, (*instanceResult).modNs))/1e3)
	put("setup_s", fastOf(pooled(insts, func(res *instanceResult) []float64 { return res.setupS })))
	put("heap_mb", across(insts, func(res *instanceResult) float64 { return res.heapMB }))
	return m
}

// calibNs is the run's host calibration reading: the median over all its
// instances.
func (r *runner) calibNs() float64 {
	return across(r.res, func(res *instanceResult) float64 { return res.calibNs })
}

// counts sums attempted and failed operations over the instances.
func (r *runner) counts() (attempted, failed int) {
	for _, res := range r.res {
		attempted += res.attempted()
		failed += res.failed()
	}
	return attempted, failed
}

// outcomeOf assembles the driver-facing result of a run.
func (r *runner) outcomeOf(metrics map[string]metric) outcome {
	attempted, failed := r.counts()
	ok := failed == 0
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			ok = false
		}
	}
	return outcome{Correct: ok, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// printMetrics writes a metric table sorted by name.
func printMetrics(w io.Writer, title string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// printFailures lists what failed, oracle disagreements by flow index.
func (r *runner) printFailures(w io.Writer) {
	for i, res := range r.res {
		if res.failed() == 0 {
			continue
		}
		fmt.Fprintf(w, "  instance %d: rx_rejects=%d flowmod_errors=%d unaccounted=%d oracle_mismatches=%d",
			i+1, res.rejected, res.modErrors, res.unaccounted, len(res.mismatches))
		if n := len(res.mismatches); n > 0 {
			show := append([]int32(nil), res.mismatches...)
			sort.Slice(show, func(a, b int) bool { return show[a] < show[b] })
			if n > 16 {
				show = show[:16]
			}
			fmt.Fprintf(w, " flows=%v", show)
		}
		fmt.Fprintln(w)
	}
}

// jsonLine renders v as one line of JSON.  It fails only on a metric that is
// NaN or infinite, which means a measurement produced no samples.
func jsonLine(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("result line: %w", err)
	}
	return string(b), nil
}

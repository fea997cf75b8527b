package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

// smokeScale is a few milliseconds of each step: enough to emit every
// metric and exercise every path, far too little to measure anything.
func smokeScale() scale {
	return scale{
		units:        24,
		setupK:       1,
		warmFrames:   4096,
		probeMods:    16,
		oracleFrames: 512,
		ledgerPass:   2 * time.Millisecond,
	}
}

func smokeRunner(t *testing.T, name string, seed int64) *runner {
	t.Helper()
	sp := specByName(name)
	if sp == nil {
		t.Fatalf("no workload %q", name)
	}
	return &runner{sp: sp, seed: seed, scale: smokeScale(), cal: testCalibrator}
}

// testCalibrator is shared: building the chase permutation takes ~20 ms.
var testCalibrator = newCalibrator()

// benchmarkFile is the part of BENCHMARK.json the tests check the harness
// against.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func checkFinite(t *testing.T, workload string, metrics map[string]metric) {
	t.Helper()
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", workload, name, m.Value)
		}
	}
}

// TestEndToEndSmoke runs every workload once at smoke scale and checks that
// each end-to-end metric of BENCHMARK.json comes out by name with its unit
// and that no operation failed.
func TestEndToEndSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(f.Workloads), len(specs))
	}
	for _, wl := range f.Workloads {
		if sp := specByName(wl.Name); sp == nil || sp.why != wl.Why {
			t.Errorf("%s: BENCHMARK.json and the harness disagree on why the workload exists", wl.Name)
		}
		r := smokeRunner(t, wl.Name, 2016)
		if err := r.runInstance(false, false); err != nil {
			t.Fatal(err)
		}
		metrics := r.endToEnd()
		if len(metrics) != len(f.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", wl.Name, len(metrics), len(f.EndToEnd))
		}
		for _, want := range f.EndToEnd {
			got, ok := metrics[want.Name]
			if !ok || got.Unit != want.Unit {
				t.Errorf("%s: metric %s [%s] missing, got %+v", wl.Name, want.Name, want.Unit, got)
			}
			if got.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl.Name, want.Name, got.Value)
			}
			if endToEndBounds[want.Name] != want.Bound {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the harness", want.Name, want.Bound, endToEndBounds[want.Name])
			}
		}
		checkFinite(t, wl.Name, metrics)
		o := r.outcomeOf(metrics)
		if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", wl.Name, o.Correct, o.Failed, o.Attempted)
			r.printFailures(os.Stderr)
		}
	}
}

// TestTracedSmoke runs a traced run of the two workloads that build in
// milliseconds and checks that every per-layer metric of BENCHMARK.json comes
// out with its unit, that the ledger's identities hold, and that the span
// file is written.
func TestTracedSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, name := range []string{"lb_decomposed", "l2_uniform_cached"} {
		r := smokeRunner(t, name, 2016)
		layer, err := r.tracedRun(dir, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(layer) != len(f.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", name, len(layer), len(f.PerLayer))
		}
		for _, want := range f.PerLayer {
			if got, ok := layer[want.Name]; !ok || got.Unit != want.Unit {
				t.Errorf("%s: metric %s [%s] missing, got %+v", name, want.Name, want.Unit, got)
			}
		}
		checkFinite(t, name, layer)
		v := func(n string) float64 { return layer[n].Value }
		if sum := v("core.burst_ns_pkt") + v("dpdk.substrate_ns_pkt") + v("dpdk.unattributed_ns_pkt"); math.Abs(sum-v("dpdk.poll_ns_pkt")) > 1e-6 {
			t.Errorf("%s: burst + substrate + unattributed = %v, poll = %v", name, sum, v("dpdk.poll_ns_pkt"))
		}
		if v("core.micro_stale_ratio") != 0 {
			t.Errorf("%s: stale ratio %v without a single flow-mod in the timed phase", name, v("core.micro_stale_ratio"))
		}
		if name == "lb_decomposed" {
			if v("core.cache_gain") != 1 {
				t.Errorf("cache_gain = %v on an uncached workload, want exactly 1", v("core.cache_gain"))
			}
			if v("core.tables_list") == 0 || v("tss.lookup_ns") <= 0 {
				t.Errorf("lb_decomposed should reach the linked-list template: tables_list=%v tss.lookup_ns=%v",
					v("core.tables_list"), v("tss.lookup_ns"))
			}
		}
		if o := r.outcomeOf(layer); !o.Correct {
			t.Errorf("%s: traced run failed %d of %d operations", name, o.Failed, o.Attempted)
		}
		if _, err := os.Stat(dir + "/trace-" + name + ".json"); err != nil {
			t.Errorf("span file: %v", err)
		}
	}
}

// cacheCounts are the program counters a run of one seed must reproduce.
type cacheCounts struct {
	hits, misses, stale, megaHits, megaMisses, incremental uint64
}

func countsOf(t *testing.T, name string, seed int64) cacheCounts {
	t.Helper()
	r := smokeRunner(t, name, seed)
	r.setupK = 0
	r.oracleFrames = 0
	if err := r.runInstance(false, false); err != nil {
		t.Fatal(err)
	}
	b, a := r.res[0].before, r.res[0].after
	return cacheCounts{
		hits: a.cache.Hits - b.cache.Hits, misses: a.cache.Misses - b.cache.Misses,
		stale:    a.cache.Stale - b.cache.Stale,
		megaHits: a.mega.Hits - b.mega.Hits, megaMisses: a.mega.Misses - b.mega.Misses,
		incremental: a.incremental - b.incremental,
	}
}

// TestCountersRepeatPerSeed checks that the hit-ratio counters are a pure
// function of the seed: identical across two runs of one seed, different for
// another seed.
func TestCountersRepeatPerSeed(t *testing.T) {
	const name = "gateway_churn"
	first, again, other := countsOf(t, name, 2016), countsOf(t, name, 2016), countsOf(t, name, 7)
	if first != again {
		t.Errorf("seed 2016 gave %+v, then %+v", first, again)
	}
	if first == other {
		t.Errorf("seeds 2016 and 7 gave the same counters %+v", first)
	}
	if first.hits == 0 || first.stale == 0 || first.incremental == 0 {
		t.Errorf("churn run should hit, go stale and update incrementally: %+v", first)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.625, 35}, {1, 50}, {-1, 10}, {2, 50},
	} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := median([]float64{5, math.NaN(), 1, 3}); got != 3 {
		t.Errorf("median ignoring NaN = %v, want 3", got)
	}
	if got := median([]float64{4, 1}); got != 2.5 {
		t.Errorf("median of two = %v, want 2.5", got)
	}
}

// TestReductions checks how samples become reported values: the fast
// quantile of the units pooled over the instances, the per-entry cost of the
// flow-mod pairs and its fast quantile, and the median across instances.
func TestReductions(t *testing.T) {
	a, b := &instanceResult{}, &instanceResult{}
	for i := 0; i < 26; i++ {
		a.units = append(a.units, float64(100+i))
	}
	for i := 0; i < 25; i++ {
		b.units = append(b.units, float64(200+i))
	}
	// 51 pooled units; the 0.01 quantile sits at position 0.5 of the sorted pool.
	if got := unitNs([]*instanceResult{a, b}); got != 100.5 {
		t.Errorf("unitNs = %v, want 100.5", got)
	}

	// Five entries: three complete pairs (add+delete = 4, 8, 20 us), one add
	// still waiting for its delete, one never issued.  Per-call means 2, 4,
	// 10 us; the 0.01 quantile of three samples sits 0.02 of the way from the
	// first to the second.
	r := newInstanceResult(0, 5)
	for pair, ns := range map[int][2]float64{0: {1000, 3000}, 1: {2000, 6000}, 2: {5000, 15000}} {
		r.pairNs[pair], r.pairCalls[pair] = ns[0]+ns[1], 2
	}
	r.pairNs[3], r.pairCalls[3] = 1, 1
	if got := r.modNs(); len(got) != 3 || got[0] != 2000 || got[1] != 4000 || got[2] != 10000 {
		t.Errorf("modNs = %v, want [2000 4000 10000]", got)
	}
	if got := fastOf(r.modNs()); math.Abs(got-2040) > 1e-9 {
		t.Errorf("fastOf = %v, want 2040", got)
	}

	insts := []*instanceResult{{heapMB: 3}, {heapMB: 1}, {heapMB: 2}}
	if got := across(insts, func(r *instanceResult) float64 { return r.heapMB }); got != 2 {
		t.Errorf("median across instances = %v, want 2", got)
	}
}

func TestNormaliseArgs(t *testing.T) {
	got := normaliseArgs([]string{"--workload", "l3_uniform", "--trace", "1", "--seed", "3", "-trace", "0", "-trace"})
	want := []string{"--workload", "l3_uniform", "--trace=1", "--seed", "3", "-trace=0", "-trace"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestChurnModsShape(t *testing.T) {
	mods := churnMods(rand.New(rand.NewSource(1)), 64)
	if len(mods) != 64 {
		t.Fatalf("%d mods, want 64", len(mods))
	}
	routes := 0
	live := map[string]bool{}
	pairOf := map[string]int{}
	for j, m := range mods {
		isRoute := m.table == 110
		if isRoute != (j%8 == 7) {
			t.Errorf("mod %d: route=%v, want every eighth mod to be a route", j, isRoute)
		}
		if isRoute {
			routes++
		}
		key := fmt.Sprint(m.table, m.priority, m.match)
		if m.add == live[key] {
			t.Errorf("mod %d (%s): add of a live entry or delete of an absent one", j, key)
		}
		live[key] = m.add
		if m.add {
			pairOf[key] = m.pair
		} else if pairOf[key] != m.pair {
			t.Errorf("mod %d: delete carries pair %d, its add carried %d", j, m.pair, pairOf[key])
		}
		if m.pair < 0 || m.pair >= len(mods) {
			t.Errorf("mod %d: pair %d outside the sequence", j, m.pair)
		}
	}
	if routes != 8 {
		t.Errorf("%d route mods in 64, want 8", routes)
	}
}

//go:build race

package dpdk

// raceEnabled reports that the race detector is instrumenting this build;
// allocation assertions are skipped because the detector itself allocates.
const raceEnabled = true

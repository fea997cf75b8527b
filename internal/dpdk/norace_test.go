//go:build !race

package dpdk

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false

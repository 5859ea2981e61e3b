//go:build race

package bench

// raceBuild reports a binary built with Go's -race instrumentation,
// which slows execution several-fold: wall-clock throughput bars are
// logged, not asserted, under it.
const raceBuild = true

//go:build race

package atomig

// raceBuild reports a binary built with Go's -race instrumentation,
// under which sync.Pool drops a share of the buffers put back, so
// allocation counts of pooled paths are not measurable.
const raceBuild = true

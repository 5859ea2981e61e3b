//go:build !race

package bench

// raceBuild is false in normal builds; see racebuild_test.go.
const raceBuild = false

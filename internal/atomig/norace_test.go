//go:build !race

package atomig

// raceBuild is false in normal builds; see racebuild_test.go.
const raceBuild = false

//go:build race

package secagg

// raceBuild reports a -race build, whose instrumentation allocates on its
// own schedule: the allocation bounds skip it.
const raceBuild = true

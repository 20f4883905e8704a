//go:build race

package cluster

// raceEnabled lets allocation guards skip under the race detector, whose
// instrumentation allocates on paths that are clean in normal builds.
const raceEnabled = true

//go:build race

package testutil

// Race reports whether the race detector is compiled in. Its
// instrumentation allocates, so exact allocation ceilings skip under it.
const Race = true

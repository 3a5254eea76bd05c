//go:build !race

package codec

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-accounting assertions skip themselves under it (the
// race runtime adds its own allocations and randomizes pool reuse).
const raceEnabled = false

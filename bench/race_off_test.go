//go:build !race

package main

// raceEnabled reports whether the race detector is instrumenting this
// build; the smoke test gives its runs more time under it.
const raceEnabled = false

//go:build !race

// Package race reports whether the binary was built with the race
// detector. Allocation tests consult it: the race runtime instruments
// memory operations and shifts testing.AllocsPerRun counts, so exact
// allocation budgets hold only in a build without -race.
package race

// Enabled is true when the binary was built with -race.
const Enabled = false

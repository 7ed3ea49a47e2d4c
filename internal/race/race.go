//go:build race

package race

// Enabled is true when the binary was built with -race.
const Enabled = true

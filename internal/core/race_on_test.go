//go:build race

package core

// raceEnabled tells allocation budgets to stand down: they are measured
// without the race detector.
const raceEnabled = true

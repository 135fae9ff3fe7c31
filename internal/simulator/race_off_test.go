//go:build !race

package simulator

const raceEnabled = false

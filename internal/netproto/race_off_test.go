//go:build !race

package netproto

const raceEnabled = false

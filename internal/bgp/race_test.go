//go:build race

package bgp

func init() { raceEnabled = true }

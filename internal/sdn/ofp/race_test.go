//go:build race

package ofp

func init() { raceEnabled = true }

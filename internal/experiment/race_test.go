//go:build race

package experiment

func init() { raceEnabled = true }

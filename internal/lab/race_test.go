//go:build race

package lab

func init() { raceEnabled = true }

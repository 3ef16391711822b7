//go:build race

package sdn

func init() { raceEnabled = true }

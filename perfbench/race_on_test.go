//go:build race

package main

// The race runtime's own C frames carry no Go caller, so under -race most
// of a profile lands in other.
func init() { raceEnabled = true }

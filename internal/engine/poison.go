//go:build !race

package engine

// poison does nothing outside race-detector builds (poison_race.go).
func poison([]byte) {}

//go:build race

package partix

func init() { raceDetector = true }

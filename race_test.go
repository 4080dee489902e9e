//go:build race

package sparsehypercube_test

func init() { raceEnabled = true }

//go:build !race

package testutil

// Race: see race.go.
const Race = false

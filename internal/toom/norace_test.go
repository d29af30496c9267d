//go:build !race

package toom

const raceEnabled = false

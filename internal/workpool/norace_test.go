//go:build !race

package workpool

const raceEnabled = false

//go:build race

package locusd

const raceEnabled = true

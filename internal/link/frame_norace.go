//go:build !race

package link

// scrubReleased is off outside race-detector builds; see frame_race.go.
const scrubReleased = false

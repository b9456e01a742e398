//go:build race

package link

// scrubReleased overwrites a released frame's bytes before it returns to
// the pool, so a holder that reads a recycled frame breaks a byte-identity
// or fingerprint test instead of passing silently.
const scrubReleased = true

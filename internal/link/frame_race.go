//go:build race

package link

// scrubReleased overwrites a released frame's bytes before it returns to
// the pool, and a delivered control message's bytes once its handler
// returns, so a holder that reads recycled memory breaks a byte-identity
// or fingerprint test instead of passing silently.
const scrubReleased = true

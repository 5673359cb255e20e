//go:build race

package live

// The race detector slows every goroutine hand-off several times over,
// so wall-clock fidelity cannot be asserted under it. The plain
// `go test ./...` tier still does.
const raceEnabled = true

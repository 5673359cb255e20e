//go:build race

package serve

// Under the race detector sync.Pool randomly drops items on Put, so the
// pooled hedge run and its timer are reallocated on a fraction of
// requests and allocation budgets cannot hold. The plain `go test ./...`
// tier still enforces them.
const raceEnabled = true

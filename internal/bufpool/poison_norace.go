//go:build !race

package bufpool

// poison does nothing outside -race builds (see poison_race.go).
func poison[T any](s []T) {}

//go:build !linux

package live

// newAlarm arms the timekeeper's heap with a Go timer: there is no
// timerfd outside Linux.
func newAlarm(fire func()) alarm { return newTimerAlarm(fire) }

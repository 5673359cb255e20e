package live

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdAlarm is a Linux timerfd on CLOCK_MONOTONIC, the clock Go's
// monotonic readings come from. os.NewFile registers the non-blocking fd
// with the runtime's netpoller, so the goroutine that reads it parks
// like a socket reader and epoll wakes it when the kernel's hrtimer
// expires, not at the next whole millisecond.
type timerfdAlarm struct{ fd uintptr }

// newAlarm makes the timerfd and starts the goroutine that calls fire
// on every expiry; both live as long as the process, like the
// timekeeper they serve. Without a timerfd it falls back to a Go timer.
func newAlarm(fire func()) alarm {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerAlarm(fire)
	}
	f := os.NewFile(fd, "timekeeper")
	if f.SetReadDeadline(time.Time{}) != nil {
		// The netpoller did not take the fd, so a read would fail
		// with EAGAIN instead of parking.
		f.Close()
		return newTimerAlarm(fire)
	}
	go func() {
		var buf [8]byte // the expiry count, which fire does not need
		for {
			if _, err := f.Read(buf[:]); err != nil {
				panic("live: timekeeper timerfd: " + err.Error())
			}
			fire()
		}
	}()
	return timerfdAlarm{fd}
}

// arm sets the timerfd to expire once, d from now; that also clears an
// expiry not yet read.
func (a timerfdAlarm) arm(d time.Duration) {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("live: timekeeper timerfd_settime: " + errno.Error())
	}
}

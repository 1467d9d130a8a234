package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// pacer wakes an open-loop connection at its scheduled send times. A Go
// timer would not do: when every goroutine is parked the runtime's netpoller
// waits in whole milliseconds, so sub-millisecond sleeps overshoot by up to a
// millisecond and a few-thousand-requests-per-second schedule falls behind.
// A blocking nanosleep keeps the wake-up precise but holds the goroutine's P
// until the runtime's monitor retakes it, which can delay the server's own
// network wake-ups by milliseconds. A timerfd read through the netpoller
// does neither: the goroutine parks, its P stays free, and the kernel wakes
// the poller when the timer fires.
type pacer struct {
	fd  uintptr // kept apart: os.File.Fd would switch the file to blocking mode
	f   *os.File
	buf [8]byte
}

type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "pacer")}, nil
}

// waitUntil returns once the monotonic clock reaches due.
func (p *pacer) waitUntil(due int64) error {
	rem := due - nowNS()
	if rem <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(rem)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }

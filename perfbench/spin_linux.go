package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// On a virtual machine a vCPU with nothing to run halts, and waking it again
// waits for the hypervisor to schedule it: on a busy host that costs
// milliseconds, accounted as steal, and it lands on whichever request woke
// the vCPU. The serve-http open loop idles between requests, so its tail
// latency measured mostly this (loopback p99 of 2-10 ms in windows with
// steal against 0.25-0.45 ms without). serve-http therefore keeps the vCPUs
// from halting: a child process spins one thread per CPU at SCHED_IDLE, the
// policy that yields the CPU to every other task at once, so the
// benchmark's own threads run as if the spinners were not there. The
// CPU-bound workloads never idle and measured no steadier with spinners, so
// they run without.

// schedIdle is SCHED_IDLE from <sched.h>.
const schedIdle = 5

// startSpinners starts the spinner child and returns the function that
// stops it and waits for it to end. The child is also killed if this
// process dies first.
func startSpinners(n int) (func(), error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--spin", strconv.Itoa(n))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting spinners: %w", err)
	}
	return func() {
		_ = cmd.Process.Kill() // it never exits on its own
		_ = cmd.Wait()         // reaps it; the kill is its only exit
	}, nil
}

// spinForever runs n busy loops, each on its own thread at SCHED_IDLE, until
// the process is killed.
func spinForever(n int) {
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
				uintptr(unsafe.Pointer(&param))); errno != 0 {
				// Without SCHED_IDLE a spinner would compete for the CPU.
				fmt.Fprintf(os.Stderr, "perfbench: spinner: sched_setscheduler: %v\n", errno)
				os.Exit(1)
			}
			for x := 0; ; x++ {
				spinSink = x
			}
		}()
	}
	select {}
}

var spinSink int

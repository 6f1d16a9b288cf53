package main

import "syscall"

// osYield gives the processor to any other runnable thread (sched_yield).
func osYield() {
	// sched_yield cannot fail on Linux.
	_, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

package main

import (
	"syscall"
	"time"
	"unsafe"
)

const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID

// cpuTime returns the CPU time the process has used so far, all threads
// together. Unlike wall time it leaves out the time the process waited for
// a CPU and, on a guest kernel with steal-time accounting, the time the
// hypervisor ran another tenant on this virtual CPU.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("ftbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

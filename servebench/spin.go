package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// child is a helper process started from the benchmark's own binary.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// startChild starts the benchmark's binary with args and extra files
// (fd 3 on). The child is killed if the benchmark dies.
func startChild(args []string, env []string, extra ...*os.File) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := exec.Command(exe, args...)
	c.Env = append(os.Environ(), env...)
	c.Stderr = os.Stderr
	c.ExtraFiles = extra
	c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.Start(); err != nil {
		return nil, err
	}
	ch := &child{cmd: c, done: make(chan struct{})}
	go func() {
		_ = c.Wait() // a killed child always reports its signal
		close(ch.done)
	}()
	return ch, nil
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop kills the child and waits for it to exit.
func (c *child) stop() error {
	var err error
	if !c.exited() {
		if e := c.cmd.Process.Kill(); e != nil && !errors.Is(e, os.ErrProcessDone) {
			err = e
		}
	}
	<-c.done
	return err
}

// startSpinners starts n child processes that each busy-loop at
// SCHED_IDLE priority, so the host's vCPUs never halt while the
// benchmark measures. On a virtual machine, waking a halted vCPU costs
// the host's scheduling latency — often milliseconds on a shared host —
// and that latency, not the program, then sets every tail percentile. A
// SCHED_IDLE thread runs only when nothing else is runnable and yields
// the CPU at once when anything else wakes, so the spinners take no
// time from the servers or the workers; this is the virtual-machine
// equivalent of disabling deep idle states on a benchmark host. The
// children are not counted in the benchmark's process CPU, and die with
// it. Runs without spinners measure a different host, so startSpinners
// fails unless every spinner is still running a moment after it
// started. stop kills them and waits for them to exit.
func startSpinners(n int) (stop func() error, err error) {
	var kids []*child
	stop = func() error {
		var errs []error
		for _, c := range kids {
			errs = append(errs, c.stop())
		}
		return errors.Join(errs...)
	}
	for i := 0; i < n; i++ {
		c, err := startChild([]string{"-spin"}, []string{"GOMAXPROCS=1"})
		if err != nil {
			return nil, errors.Join(err, stop())
		}
		kids = append(kids, c)
	}
	time.Sleep(100 * time.Millisecond)
	for _, c := range kids {
		if c.exited() {
			return nil, errors.Join(fmt.Errorf("spinner exited: %v", c.cmd.ProcessState), stop())
		}
	}
	fmt.Printf("spinners: %d running\n", len(kids))
	return stop, nil
}

// spin is the spinner child's body. It fails if it cannot drop to
// SCHED_IDLE: spinning at normal priority would steal CPU from the
// servers under test.
func spin() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintln(os.Stderr, "servebench spinner: sched_setscheduler(SCHED_IDLE):", e)
		os.Exit(1)
	}
	for {
	}
}

package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
)

// On a virtual machine an idle vCPU halts, and waking it costs a VM
// exit. The actor engines wake a parked party goroutine for every frame,
// so the tiny-frame workloads measure that exit more than the program:
// on the 2-core reference box lr3_tcp's session_p50_s spread over ten
// runs is 11% with idle vCPUs and 3.5% without (README.md has the
// table). keepAwake is the
// user-space form of "disable C-states": one busy loop per CPU at the
// lowest priority, so no CPU idles and the session still gets every
// cycle it asks for. It distorts absolute numbers (downwards, on a VM)
// and steadies comparisons, which is what the benchmark is for.

// spinArg is the hidden first argument that turns the binary into one
// keep-awake loop.
const spinArg = "-keepawake-spin"

// keepAwake starts one spinner per CPU and returns the function that
// stops them and waits for them. Each spinner exits when its standard
// input closes, so none outlives this process however it ends.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("keep-awake: %w", err)
	}
	var cmds []*exec.Cmd
	var pipes []io.Closer
	stop = func() {
		for _, p := range pipes {
			p.Close()
		}
		for _, c := range cmds {
			_ = c.Wait() // the spinner exits 0 on end of input; nothing to act on
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, spinArg)
		in, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, fmt.Errorf("keep-awake: %w", err)
		}
		if err := cmd.Start(); err != nil {
			in.Close()
			stop()
			return nil, fmt.Errorf("keep-awake: %w", err)
		}
		cmds = append(cmds, cmd)
		pipes = append(pipes, in)
	}
	return stop, nil
}

// spin is the body of one keep-awake process: a busy loop on a thread
// at the lowest priority until standard input reaches its end.
func spin() int {
	runtime.LockOSThread()
	lowestPriority()
	var done atomic.Bool
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent closes the pipe or dies
		done.Store(true)
	}()
	for !done.Load() {
	}
	return 0
}

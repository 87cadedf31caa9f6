package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// child is one process under test: a cmd/serve server, or a worker
// running searches (see runWorker).
type child struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has exited and been reaped
}

// startChild starts cmd with its standard error, and its standard
// output unless the caller set one, going to logPath. The child is
// killed if the benchmark dies first.
func startChild(cmd *exec.Cmd, logPath string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if cmd.Stdout == nil {
		cmd.Stdout = log
	}
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", cmd.Path, err)
	}
	c := &child{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped child carries no information
		log.Close()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop asks the child to shut down gracefully, kills it if it has not
// exited within 10 s, and returns once it has been reaped.
func (c *child) stop() {
	if c.exited() {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago. A server that loses the race to another process fails to
// listen and exits, and bootChild retries.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// bootChild starts a server on a free port and waits until it answers
// /healthz with 200. args receives the listen address.
func bootChild(ctx context.Context, bin string, args func(addr string) []string, logPath string) (*child, string, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, "", err
		}
		c, err := startChild(exec.Command(bin, args(addr)...), logPath)
		if err != nil {
			return nil, "", err
		}
		url := "http://" + addr
		if lastErr = waitHealthy(ctx, c, url); lastErr == nil {
			return c, url, nil
		}
		c.stop()
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
	}
	return nil, "", fmt.Errorf("server did not become healthy (see %s): %w", logPath, lastErr)
}

// waitHealthy polls url/healthz until it answers 200, the child exits,
// or 30 s pass.
func waitHealthy(ctx context.Context, c *child, url string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		switch {
		case c.exited():
			return fmt.Errorf("server exited during boot: %v", err)
		case time.Now().After(deadline):
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// cpuTime is the CPU time, user plus system, the processes have used so
// far, read from each one's process CPU clock (clock_getcpuclockid(3)),
// which counts in nanoseconds where /proc/<pid>/stat counts in 10 ms
// ticks, so that a single op's share can be read.
func cpuTime(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		clock := int32(^pid)<<3 | 2 // CPUCLOCK_SCHED of the whole process
		var ts syscall.Timespec
		if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
			return 0, fmt.Errorf("CPU clock of process %d: %w", pid, errno)
		}
		total += time.Duration(ts.Nano())
	}
	return total, nil
}

// peakRSS sums the processes' peak resident sets (VmHWM) in KiB.
func peakRSS(pids []int) (int64, error) {
	var total int64
	for _, pid := range pids {
		kb, err := statusField(pid, "VmHWM:")
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total, nil
}

func statusField(pid int, name string) (int64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", name, pid)
}

// allowedCPUs is the list of CPUs this process may run on, as
// /proc/self/status writes it ("1", "0-1", ...).
func allowedCPUs() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one cmd/server process under test.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	// ready is when /readyz first answered 200.
	ready time.Time
}

// errExited reports a server process that ended before /readyz said 200.
var errExited = errors.New("exited before ready")

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer forks bin with args, logging to logPath. The child is killed
// if the benchmark itself dies (Pdeathsig), so no server outlives a run.
func startServer(bin, addr string, args []string, logPath string) (*serverProc, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	all := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, all...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: lf}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return p, nil
}

// waitReady polls /readyz until it answers 200, the process exits, or the
// timeout passes.
func (p *serverProc) waitReady(c *http.Client, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/readyz", nil)
		resp, err := c.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.ready = time.Now()
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("server %s: %w: %s", p.base, errExited, p.tail())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server %s not ready after %v", p.base, timeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// exited reports whether the process has terminated, without reaping it.
func (p *serverProc) exited() bool {
	var ws syscall.WaitStatus
	pid, _ := syscall.Wait4(p.cmd.Process.Pid, &ws, syscall.WNOHANG|syscall.WNOWAIT, nil)
	return pid == p.cmd.Process.Pid
}

// tail returns the end of the server's log, for error messages.
func (p *serverProc) tail() string {
	b, _ := os.ReadFile(p.log.Name())
	if len(b) > 800 {
		b = b[len(b)-800:]
	}
	return strings.TrimSpace(string(b))
}

// kill SIGKILLs the process and waits until it has ended.
func (p *serverProc) kill() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.log.Close()
}

// procStatusKB reads a "Name:   N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	kb, err := procStatusKB(p.cmd.Process.Pid, "VmHWM")
	return kb / 1024, err
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuSeconds is the process's user+system CPU time so far.
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space separated, utime and stime being the
	// 14th and 15th fields of the line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	return (ut + st) / clockTicks, nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the /proc/<pid>/stat time unit (USER_HZ), 100 on Linux.
const clockTicks = 100

// sut is one fixserve process under test.
type sut struct {
	cmd    *exec.Cmd
	addr   string // host:port it listens on
	drain  chan struct{}
	stderr *os.File
}

// startServer launches fixserve with the given flags plus -addr
// 127.0.0.1:0, and returns once its banner names the port it listens on.
// Standard error goes to logPath so a failed run can be diagnosed.
func startServer(bin string, args []string, logPath string) (*sut, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &sut{cmd: cmd, drain: make(chan struct{}), stderr: logf}
	banner := make(chan string, 1)
	go func() {
		defer close(s.drain)
		rd := bufio.NewReader(out)
		line, _ := rd.ReadString('\n')
		banner <- line
		_, _ = io.Copy(io.Discard, rd)
	}()
	select {
	case line := <-banner:
		_, addr, ok := strings.Cut(strings.TrimSpace(line), "listening on ")
		if !ok {
			s.stop()
			return nil, fmt.Errorf("%s %v: no listen banner (got %q; see %s)", bin, args, line, logPath)
		}
		s.addr = addr
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s %v: no banner within 30s (see %s)", bin, args, logPath)
	}
	return s, nil
}

// url is the server's base URL.
func (s *sut) url() string { return "http://" + s.addr }

// pid of the process.
func (s *sut) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits up to ten seconds for a graceful exit, then
// kills, and always reaps the process and its output reader.
func (s *sut) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		logf("%s did not exit within 10s of SIGTERM; killing it", s.cmd.Path)
		_ = s.cmd.Process.Kill()
		<-done
	}
	<-s.drain
	s.stderr.Close()
}

// stopAll stops the servers in the reverse of their start order, so a
// proxy goes before the workers it forwards to.
func stopAll(ss []*sut) {
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].stop()
	}
}

// cpuTime reads a live process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15).
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// the fields after it start past the last ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// cpuTimeAll sums cpuTime over the servers.
func cpuTimeAll(ss []*sut) (time.Duration, error) {
	var sum time.Duration
	for _, s := range ss {
		d, err := cpuTime(s.pid())
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// peakRSSMB sums VmHWM (peak resident set) over the servers, in MiB.
func peakRSSMB(ss []*sut) (float64, error) {
	var kb int64
	for _, s := range ss {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("/proc/%d/status: VmHWM %q", s.pid(), rest)
				}
				kb += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("/proc/%d/status: no VmHWM", s.pid())
		}
	}
	return float64(kb) / 1024, nil
}

// jobResult is one finished fixrepair run.
type jobResult struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout string
}

// runJob runs one fixrepair invocation to completion and reports its wall
// time (spawn to exit), CPU time and peak RSS from the kernel's rusage.
func runJob(ctx context.Context, bin string, args []string) (jobResult, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return jobResult{}, fmt.Errorf("%s %v: %v: %s", bin, args, err, strings.TrimSpace(errb.String()))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return jobResult{}, fmt.Errorf("no rusage for %s", bin)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return jobResult{wall: wall, cpu: cpu, rssMB: float64(ru.Maxrss) / 1024, stdout: out.String()}, nil
}

// stallLimit is the longest this process's own 5 ms heartbeat may go
// unserved before a measured phase counts as hit by a host stall: the VM,
// this process included, stopped running. The system under test cannot
// starve this process for that long through fair scheduling, so such a
// phase measured the host, not the program, and it is repeated (failures
// seen in it still count).
const stallLimit = 250 * time.Millisecond

// maxRepeats bounds how often one run repeats stalled phases.
const maxRepeats = 3

// heartbeat measures the longest gap between this process's own ticks.
type heartbeat struct {
	stop, done chan struct{}
	worst      time.Duration
}

func startHeartbeat() *heartbeat {
	h := &heartbeat{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				now := time.Now()
				h.worst = max(h.worst, now.Sub(last))
				last = now
			}
		}
	}()
	return h
}

// end stops the heartbeat and returns the longest gap it saw.
func (h *heartbeat) end() time.Duration {
	close(h.stop)
	<-h.done
	return h.worst
}

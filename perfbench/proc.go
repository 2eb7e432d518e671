package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a process running this binary in another role. It speaks one
// JSON object per stdout line and stops when its stdin closes.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	done  chan error
}

// startChild re-executes this binary as role with spec as its input.
func startChild(role string, spec any) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-role", role, "-spec", string(js))
	cmd.Stderr = os.Stderr
	// A child must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	// A child prints a handful of lines over its life; the buffer holds
	// them all, so the reader never blocks the child.
	c := &child{cmd: cmd, stdin: stdin, lines: make(chan string, 64), done: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
		close(c.lines)
		c.done <- cmd.Wait()
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// recv decodes the child's next output line into v.
func (c *child) recv(v any, timeout time.Duration) error {
	select {
	case ln, ok := <-c.lines:
		if !ok {
			return fmt.Errorf("%s exited early", c.cmd.Args[2])
		}
		return json.Unmarshal([]byte(ln), v)
	case <-time.After(timeout):
		return fmt.Errorf("%s: no answer within %v", c.cmd.Args[2], timeout)
	}
}

func (c *child) send(line string) error {
	_, err := io.WriteString(c.stdin, line+"\n")
	return err
}

// wait waits for the child to exit on its own.
func (c *child) wait(timeout time.Duration) error {
	select {
	case err := <-c.done:
		c.done <- err
		return err
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("%s: killed after %v", c.cmd.Args[2], timeout)
	}
}

// stop closes the child's stdin, which asks it to exit, and waits; a
// child that does not exit in time is killed.
func (c *child) stop() error {
	_ = c.stdin.Close()
	return c.wait(15 * time.Second)
}

// emit writes v as one JSON line to stdout, the child's reply channel.
func emit(v any) error {
	js, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", js)
	return err
}

// awaitLine blocks until the parent sends a line or closes stdin (io.EOF).
func awaitLine(r *bufio.Reader) (string, error) {
	ln, err := r.ReadString('\n')
	if err != nil && !(errors.Is(err, io.EOF) && ln != "") {
		return "", err
	}
	return strings.TrimSpace(ln), nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU seconds a process has used,
// summed over its threads.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	k, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (u + k) / clockTicks, nil
}

// procPeakRSS returns a process's peak resident set size (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostSteal returns the CPU time, in seconds summed over all CPUs, that the
// hypervisor has run other guests while this machine's CPUs wanted to run
// (the steal column of /proc/stat).
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	ln, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(ln)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / clockTicks
}

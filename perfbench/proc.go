package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
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

// server is one bubbled child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	root string
	done chan error // receives cmd.Wait's result once
}

// startServer execs bubbled over a fresh root and waits for its listen
// address. Its request log is drained and dropped.
func startServer(bin, root string, pipelineDepth int) (*server, error) {
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-root", root,
		"-pipeline-depth", strconv.Itoa(pipelineDepth))
	// The child dies with the benchmark even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bubbled: %w", err)
	}
	s := &server{cmd: cmd, root: root, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		const marker = "bubbled: serving on "
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				f := strings.Fields(line[i+len(marker):])
				if len(f) > 0 {
					addrCh <- f[0]
				}
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addrCh:
		s.addr = a
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("bubbled exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("bubbled did not report a listen address within 30s")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// kill stops the process at once and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// drain sends SIGTERM — bubbled then stops admissions, flushes, writes a
// final checkpoint per tenant and exits — and waits up to timeout.
func (s *server) drain(timeout time.Duration) error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("bubbled drain exit: %w", err)
		}
		return nil
	case <-time.After(timeout):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("bubbled did not drain within %s", timeout)
	}
}

// cpuSeconds reads user+sys CPU of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad cpu fields in /proc stat")
	}
	return (ut + st) / clockTicks(), nil
}

// clockTicks reads AT_CLKTCK from the auxiliary vector (USER_HZ), 100
// when it cannot.
func clockTicks() float64 {
	b, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	for i := 0; i+16 <= len(b); i += 16 {
		key := binary.LittleEndian.Uint64(b[i:])
		val := binary.LittleEndian.Uint64(b[i+8:])
		if key == 17 && val > 0 { // AT_CLKTCK
			return float64(val)
		}
	}
	return 100
}

// resetPeakRSS resets the process's VmHWM to its current RSS.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/<pid>/status, in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostCPU reads the machine-wide busy and steal time from /proc/stat, in
// clock ticks. Steal is time the hypervisor gave this machine's CPUs to
// someone else: a run that saw much of it ran on a slower machine.
func hostCPU() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal, nil
}

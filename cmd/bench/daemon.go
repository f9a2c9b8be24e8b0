package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one bestagond under test.
type server struct {
	Base string
	// PID is the process whose /proc counters are read (the daemon, or
	// the test process for an in-process server).
	PID int
	// CacheDir is the -cache-dir of a durable server ("" otherwise).
	CacheDir string
	Stop     func() error
}

// startFunc starts a server, durable ones with a journal and a disk cache
// under dir, and returns without waiting for it to become healthy.
type startFunc func(durable bool, dir string) (*server, error)

// daemonStarter starts the bestagond binary at bin with 2 workers.
func daemonStarter(bin string) startFunc {
	return func(durable bool, dir string) (*server, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr, "-workers", "2", "-log-level", "warn"}
		s := &server{Base: "http://" + addr}
		if durable {
			s.CacheDir = filepath.Join(dir, "cache")
			args = append(args, "-journal-dir", filepath.Join(dir, "journal"), "-cache-dir", s.CacheDir)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		// A daemon must not outlive a benchmark that is killed mid-run.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start bestagond: %w", err)
		}
		s.PID = cmd.Process.Pid
		s.Stop = func() error {
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				return err
			case <-time.After(15 * time.Second):
				cmd.Process.Kill()
				<-done
				return fmt.Errorf("bestagond did not stop on SIGTERM")
			}
		}
		return s, nil
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// bootPoll is the pause between readiness checks of a booting server. A
// refused loopback dial costs microseconds, so waiting this long between
// dials leaves both cores to the daemon being timed.
const bootPoll = 500 * time.Microsecond

// boot starts a server and waits for its first 200 on /healthz, returning
// the time from start to healthy. It dials the listen address until a
// connection is accepted and only then asks /healthz.
func boot(start startFunc, durable bool, dir string, client *http.Client) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := start(durable, dir)
	if err != nil {
		return nil, 0, err
	}
	addr := strings.TrimPrefix(s.Base, "http://")
	for {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			resp, err := client.Get(s.Base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(t0), nil
				}
			}
		}
		if time.Since(t0) > 60*time.Second {
			s.Stop()
			return nil, 0, fmt.Errorf("server at %s never became healthy", s.Base)
		}
		time.Sleep(bootPoll)
	}
}

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// procPeakRSS returns a process's VmHWM in MiB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// exposition is a parsed Prometheus text scrape: sample value by series
// (family name plus its label set, as printed).
type exposition map[string]float64

func parseExposition(text string) exposition {
	m := exposition{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// sum adds every series of a family whose labels contain all of the given
// label="value" fragments.
func (e exposition) sum(family string, labels ...string) float64 {
	var total float64
	for series, v := range e {
		rest, ok := strings.CutPrefix(series, family)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after − before for one family sum.
func delta(before, after exposition, family string, labels ...string) float64 {
	return after.sum(family, labels...) - before.sum(family, labels...)
}

// countFiles counts regular files below dir.
func countFiles(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return nil
	})
	return n
}

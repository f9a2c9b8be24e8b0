// Package smoke is the harness of the end-to-end smoke commands
// (scripts/serve-smoke, scripts/chaos-smoke): it builds bestagond, starts
// and stops daemons, talks HTTP to them and fails the run. A failing run
// kills every daemon it started and removes its temp dir before it exits.
package smoke

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

var (
	name = "smoke" // prefix of every Step and Fatal line

	mu      sync.Mutex
	tmpDir  string    // the run's temp dir, removed by cleanup
	started []*Daemon // every daemon started, killed by cleanup
)

// Run names the run in every Step and Fatal line, makes its temp dir and
// calls body with it. When body returns or panics, every daemon it left
// running is killed and the temp dir removed; Fatal does the same.
func Run(runName string, body func(dir string)) {
	name = runName
	dir, err := os.MkdirTemp("", name+"-*")
	if err != nil {
		Fatal(err)
	}
	mu.Lock()
	tmpDir = dir
	mu.Unlock()
	defer cleanup()
	body(dir)
	Step("PASS")
}

// Step prints one progress line.
func Step(format string, args ...any) {
	fmt.Printf("%s: %s\n", name, fmt.Sprintf(format, args...))
}

// Fatal reports err, kills every started daemon that is still running,
// removes the temp dir and exits 1.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, name+": FAIL:", err)
	cleanup()
	os.Exit(1)
}

// Fatalf is Fatal with a formatted error.
func Fatalf(format string, args ...any) { Fatal(fmt.Errorf(format, args...)) }

// cleanup kills every started daemon that is still running and removes
// the temp dir.
func cleanup() {
	mu.Lock()
	defer mu.Unlock()
	for _, d := range started {
		d.kill()
	}
	started = nil
	if tmpDir != "" {
		os.RemoveAll(tmpDir)
		tmpDir = ""
	}
}

// Build compiles ./cmd/bestagond into dir, with the race detector when
// race is set, and returns the binary's path.
func Build(dir string, race bool) string {
	Step("building bestagond")
	bin := filepath.Join(dir, "bestagond")
	args := []string{"build", "-o", bin}
	if race {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, "./cmd/bestagond")...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		Fatalf("build: %v", err)
	}
	return bin
}

// FreeAddr picks an ephemeral localhost port.
func FreeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// Daemon is one started daemon process.
type Daemon struct {
	Addr string // host:port it listens on
	URL  string // "http://" + Addr

	cmd  *exec.Cmd
	log  syncBuffer
	done chan struct{} // closed once the process has exited
	err  error         // the process's exit error, set before done closes
}

// Start starts bin with -addr addr and the given flags. Its stdout and
// stderr go to this process's stderr; stderr is also kept for Log.
func Start(bin, addr string, args ...string) *Daemon {
	d := &Daemon{Addr: addr, URL: "http://" + addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, io.MultiWriter(os.Stderr, &d.log)
	mu.Lock()
	err := d.cmd.Start()
	if err == nil {
		started = append(started, d)
	}
	mu.Unlock()
	if err != nil {
		Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	return d
}

// Exited reports whether the process has exited, and its exit error.
func (d *Daemon) Exited() (bool, error) {
	select {
	case <-d.done:
		return true, d.err
	default:
		return false, nil
	}
}

// WaitHealthy waits until GET /healthz answers 200. It fails the run
// after timeout, or at once if the process exits first.
func (d *Daemon) WaitHealthy(timeout time.Duration) {
	Eventually(timeout, 100*time.Millisecond, func() error {
		if exited, err := d.Exited(); exited {
			Fatalf("daemon at %s exited before it was healthy: %v", d.Addr, err)
		}
		if code, _, _, err := send(http.DefaultClient, http.MethodGet, d.URL+"/healthz", nil, nil); err != nil || code != http.StatusOK {
			return fmt.Errorf("daemon at %s never became healthy", d.Addr)
		}
		return nil
	})
}

// Stop sends SIGTERM and fails the run unless the process exits cleanly
// within 30 s.
func (d *Daemon) Stop() {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		Fatalf("daemon at %s: SIGTERM: %v", d.Addr, err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			Fatalf("daemon at %s: exit after SIGTERM: %v", d.Addr, d.err)
		}
	case <-time.After(30 * time.Second):
		Fatalf("daemon at %s did not exit within 30s of SIGTERM", d.Addr)
	}
}

// Kill SIGKILLs the process and waits for it to exit. A process that has
// already exited fails the run: the kill was meant to strand live work.
func (d *Daemon) Kill() {
	if exited, err := d.Exited(); exited {
		Fatalf("daemon at %s exited before SIGKILL: %v", d.Addr, err)
	}
	d.kill()
}

func (d *Daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only once the process has exited
	<-d.done
}

// Log returns what the process has written to stderr so far.
func (d *Daemon) Log() []byte { return d.log.Bytes() }

// syncBuffer is a bytes.Buffer safe for the copying goroutine of
// os/exec and a concurrent reader.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Clone(s.b.Bytes())
}

// Eventually calls try every interval until it returns nil, and fails the
// run with try's last error once timeout has passed.
func Eventually(timeout, every time.Duration, try func() error) {
	deadline := time.Now().Add(timeout)
	for {
		err := try()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			Fatal(err)
		}
		time.Sleep(every)
	}
}

package smoke

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// standInEnv makes the test binary play a daemon (see standIn).
const standInEnv = "SMOKE_STAND_IN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(standInEnv) == "1" {
		standIn()
		return
	}
	os.Exit(m.Run())
}

// standIn is the daemon the tests start: it serves GET /healthz on the
// address after -addr (Start passes it first), writes one line to stderr
// and exits 0 on SIGTERM.
func standIn() {
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	http.HandleFunc("GET /healthz", func(http.ResponseWriter, *http.Request) {})
	go func() {
		fmt.Fprintln(os.Stderr, "stand-in up")
		if err := http.ListenAndServe(os.Args[2], nil); err != nil {
			os.Exit(2)
		}
	}()
	<-term
}

// TestCleanupStopsDaemons runs the cleanup Fatal runs before it exits: a
// daemon still running is killed and the temp dir is removed. A daemon
// stopped before it must have exited cleanly, with its stderr kept.
func TestCleanupStopsDaemons(t *testing.T) {
	t.Setenv(standInEnv, "1")
	dir, err := os.MkdirTemp("", "smoke-test-*")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	tmpDir = dir
	mu.Unlock()

	stopped := Start(os.Args[0], FreeAddr())
	running := Start(os.Args[0], FreeAddr())
	t.Cleanup(func() { running.cmd.Process.Kill() }) // should cleanup fail
	stopped.WaitHealthy(5 * time.Second)
	running.WaitHealthy(5 * time.Second)
	stopped.Stop()
	if exited, err := stopped.Exited(); !exited || err != nil {
		t.Fatalf("stopped daemon: exited %v, err %v; want a clean exit", exited, err)
	}
	if got := string(stopped.Log()); got != "stand-in up\n" {
		t.Fatalf("stopped daemon's stderr %q; want the stand-in's line", got)
	}
	if exited, _ := running.Exited(); exited {
		t.Fatal("second daemon exited before cleanup")
	}

	cleanup()
	if exited, _ := running.Exited(); !exited {
		t.Fatal("cleanup left a daemon running")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("cleanup left the temp dir: %v", err)
	}
	if len(started) != 0 || tmpDir != "" {
		t.Fatalf("cleanup kept %d daemons and dir %q", len(started), tmpDir)
	}
}

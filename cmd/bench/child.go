package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// The cold workloads run every pass in a fresh child process (the bench
// binary re-executed with childEnv set), so process-wide state starts
// empty the way it does for a CLI run or a freshly restarted daemon. The
// child prints "ready" once the runtime and every package initializer have
// run, then reads one job from stdin and writes its result to stdout.
const childEnv = "BESTAGON_BENCH_CHILD"

type childJob struct {
	// Kind is "flow", "gates", or "exit" (a set-up probe that only starts).
	Kind  string   `json:"kind"`
	Order []string `json:"order,omitempty"`
	Trace bool     `json:"trace,omitempty"`
}

// childStats is what the parent observed about one child process.
type childStats struct {
	Setup     time.Duration // exec → "ready"
	CPU       time.Duration // user + system time of the whole child
	MaxRSSMiB float64       // peak resident set (VmHWM)
}

// childMain is the child side of the protocol.
func childMain() int {
	fmt.Println("ready")
	var job childJob
	if err := json.NewDecoder(os.Stdin).Decode(&job); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: read job:", err)
		return 1
	}
	var res any
	switch job.Kind {
	case "exit":
		return 0
	case "flow":
		res = runFlowPass(job)
	case "gates":
		res = runGatesPass(job)
	default:
		fmt.Fprintf(os.Stderr, "bench child: unknown job kind %q\n", job.Kind)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: write result:", err)
		return 1
	}
	return 0
}

// spawn runs one job in a fresh child and decodes its result into out
// (nil for an "exit" probe). The child is always waited for.
func spawn(job childJob, out any) (childStats, error) {
	self, err := os.Executable()
	if err != nil {
		return childStats{}, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return childStats{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childStats{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childStats{}, fmt.Errorf("start child: %w", err)
	}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	st := childStats{Setup: time.Since(start)}
	if err == nil && line != "ready\n" {
		err = fmt.Errorf("unexpected first line %q", line)
	}
	if err == nil {
		err = json.NewEncoder(stdin).Encode(job)
	}
	stdin.Close()
	if err == nil && out != nil {
		err = json.NewDecoder(r).Decode(out)
	}
	// Drain whatever is left so the child never blocks on a full pipe.
	io.Copy(io.Discard, r)
	if werr := cmd.Wait(); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return st, fmt.Errorf("%s child: %w", job.Kind, err)
	}
	st.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		st.MaxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return st, nil
}

// setupProbes starts n children that exit right after "ready" and
// returns their host-scaled set-up times in seconds.
func setupProbes(n int) ([]float64, error) {
	var out []float64
	h := newHostScale()
	for i := 0; i < n; i++ {
		st, err := spawn(childJob{Kind: "exit"}, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, st.Setup.Seconds()*h.next())
	}
	return out, nil
}

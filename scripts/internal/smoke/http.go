package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// send makes one request. A non-nil payload goes as a JSON body; header
// holds extra header name/value pairs. The body is read whole.
func send(c *http.Client, method, url string, payload any, header []string) (int, http.Header, []byte, error) {
	var body io.Reader
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return 0, nil, nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, nil, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: %w (daemon gone?)", method, url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, nil
}

func must(code int, h http.Header, body []byte, err error) (int, http.Header, []byte) {
	if err != nil {
		Fatal(err)
	}
	return code, h, body
}

// Get sends GET url and returns the status, header and body. A transport
// error fails the run.
func Get(url string) (int, http.Header, []byte) {
	return must(send(http.DefaultClient, http.MethodGet, url, nil, nil))
}

// Post sends payload as JSON with the given header name/value pairs and
// returns the status, header and body. A transport error fails the run.
func Post(url string, payload any, header ...string) (int, http.Header, []byte) {
	return must(send(http.DefaultClient, http.MethodPost, url, payload, header))
}

// Delete sends DELETE url. A transport error fails the run.
func Delete(url string) {
	must(send(http.DefaultClient, http.MethodDelete, url, nil, nil))
}

// TryPost posts payload as JSON through c and returns the status; it
// leaves a transport error to the caller.
func TryPost(c *http.Client, url string, payload any) (int, error) {
	code, _, _, err := send(c, http.MethodPost, url, payload, nil)
	return code, err
}

// GetJSON decodes the body of GET url into v. Anything but a 200 with a
// decodable body fails the run.
func GetJSON(url string, v any) {
	code, _, body := Get(url)
	if code != http.StatusOK {
		Fatalf("GET %s: status %d: %s", url, code, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		Fatalf("GET %s: %v", url, err)
	}
}

// PostOK posts payload like Post and fails the run on any status but 200.
func PostOK(url string, payload any, header ...string) ([]byte, http.Header) {
	code, h, body := Post(url, payload, header...)
	if code != http.StatusOK {
		Fatalf("POST %s: status %d: %s", url, code, bytes.TrimSpace(body))
	}
	return body, h
}

// Submit posts an async request and returns its job id. Anything but a
// 202 carrying an id fails the run.
func Submit(url string, payload any) string {
	code, _, body := Post(url, payload)
	var snap struct {
		ID string `json:"id"`
	}
	if code != http.StatusAccepted || json.Unmarshal(body, &snap) != nil || snap.ID == "" {
		Fatalf("POST %s (async): status %d: %s", url, code, bytes.TrimSpace(body))
	}
	return snap.ID
}

// Job is a job's status and result as GET /v1/jobs/{id} reports them.
type Job struct {
	State     string          `json:"state"`
	ErrorKind string          `json:"error_kind"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"-"`
}

// JobStatus reads job id from the daemon at base. Anything but a 200
// fails the run, so a lost job id does too.
func JobStatus(base, id string) Job {
	var out struct {
		Job    Job             `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	GetJSON(base+"/v1/jobs/"+id, &out)
	out.Job.Result = out.Result
	return out.Job
}

// WaitJob polls job id until it is done, failed or canceled, and fails
// the run if it is not after timeout.
func WaitJob(base, id string, timeout time.Duration) Job {
	var st Job
	Eventually(timeout, 50*time.Millisecond, func() error {
		st = JobStatus(base, id)
		switch st.State {
		case "done", "failed", "canceled":
			return nil
		}
		return fmt.Errorf("job %s still %q after %s", id, st.State, timeout)
	})
	return st
}

// Health is the part of GET /healthz the smoke commands read.
type Health struct {
	JobsRunning int `json:"jobs_running"`
}

// MetricValue is the sample of the first series in a Prometheus
// exposition whose name starts with name (labels allowed), or -1 when
// there is none.
func MetricValue(exposition, name string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		var v float64
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			fmt.Sscanf(line[i+1:], "%g", &v)
			return v
		}
	}
	return -1
}

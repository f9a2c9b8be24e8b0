package main

// Fleet section of the serve smoke test: boots two mutually-peered
// replicas from the already-built binary and exercises the fleet
// observability plane end to end — request-id propagation across a
// forwarded request, the stitched multi-hop trace on the entry replica,
// and the cluster overview reporting every live member from any member.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/scripts/internal/smoke"
)

func fleetSmoke(bin string) {
	fleet := smoke.StartFleet(bin, 2,
		"-workers", "2",
		"-cluster-secret", "serve-smoke-fleet",
		"-probe-interval", "200ms",
		"-log-level", "warn",
	)

	smoke.Step("fleet: X-Cluster-Peer response echoes the caller's X-Request-Id")
	// Vary the payload until one is owned by the OTHER replica, so the
	// request entry[0] receives is forwarded and the response carries
	// X-Cluster-Peer.
	var rid string
	forwarded := false
	for i := 0; i < 64 && !forwarded; i++ {
		rid = fmt.Sprintf("smoke-fleet-%04d", i)
		payload := map[string]any{
			"solver": "exgs",
			"dots": []map[string]any{
				{"x": 0, "y": 0},
				{"x": 3, "y": 0, "role": "perturber"},
				{"x": 0, "y": 4 + 2*i},
				{"x": 3, "y": 4 + 2*i, "role": "perturber"},
			},
		}
		code, h, _ := smoke.Post(fleet[0].URL+"/v1/simulate", payload, "X-Request-Id", rid)
		if code != http.StatusOK {
			smoke.Fatalf("fleet simulate: status %d", code)
		}
		if got := h.Get("X-Request-Id"); got != rid {
			smoke.Fatalf("fleet response request id %q; want the client-chosen %q", got, rid)
		}
		forwarded = h.Get("X-Cluster-Peer") != ""
	}
	if !forwarded {
		smoke.Fatalf("no payload variant was forwarded in 64 tries")
	}

	smoke.Step("fleet: stitched trace under the original request id")
	var st struct {
		RequestID string `json:"request_id"`
		Stitched  bool   `json:"stitched"`
		Hops      []struct {
			Peer string `json:"peer"`
		} `json:"hops"`
	}
	smoke.Eventually(5*time.Second, 100*time.Millisecond, func() error {
		code, _, body := smoke.Get(fleet[0].URL + "/v1/traces/" + rid)
		if code == http.StatusOK && json.Unmarshal(body, &st) == nil && st.Stitched && len(st.Hops) == 2 {
			return nil
		}
		return fmt.Errorf("no stitched 2-hop trace for %s: status %d body %s", rid, code, body)
	})
	if st.RequestID != rid {
		smoke.Fatalf("stitched trace request id %q; want %q", st.RequestID, rid)
	}
	hopPeers := map[string]bool{}
	for _, h := range st.Hops {
		hopPeers[h.Peer] = true
	}
	for _, d := range fleet {
		if !hopPeers[d.Addr] {
			smoke.Fatalf("stitched trace missing hop for %s: %v", d.Addr, hopPeers)
		}
	}

	smoke.Step("fleet: /v1/cluster/overview lists every live replica from any member")
	for _, d := range fleet {
		smoke.Eventually(5*time.Second, 100*time.Millisecond, func() error {
			var ov struct {
				AliveCount int `json:"alive_count"`
				Replicas   []struct {
					Addr  string          `json:"addr"`
					Alive bool            `json:"alive"`
					Stats json.RawMessage `json:"stats"`
				} `json:"replicas"`
			}
			code, _, body := smoke.Get(d.URL + "/v1/cluster/overview")
			if code == http.StatusOK && json.Unmarshal(body, &ov) == nil &&
				ov.AliveCount == 2 && len(ov.Replicas) == 2 &&
				ov.Replicas[0].Alive && ov.Replicas[1].Alive &&
				len(ov.Replicas[0].Stats) > 0 && len(ov.Replicas[1].Stats) > 0 {
				return nil
			}
			return fmt.Errorf("overview at %s never reported 2 live replicas with stats: %s", d.URL, body)
		})
	}

	for _, d := range fleet {
		d.Stop()
	}
}

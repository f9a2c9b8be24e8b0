package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs/flight"
)

// peerOwnedSim returns a simulate payload whose cache key is owned by a
// PEER replica from servers[entry]'s perspective (so a request landing on
// entry is forwarded), plus the owner's index. seed varies the payload so
// different tests use different cache keys.
func peerOwnedSim(t *testing.T, servers []*Server, addrs []string, entry, seed int) (map[string]any, int) {
	t.Helper()
	for i := 0; i < 128; i++ {
		p := map[string]any{
			"solver": "exgs",
			"dots": []map[string]any{
				{"x": 0, "y": 0},
				{"x": 3, "y": 0, "role": "perturber"},
				{"x": 0, "y": 4 + 2*(seed+i)},
				{"x": 3, "y": 4 + 2*(seed+i), "role": "perturber"},
			},
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var req simulateRequest
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		op, err := servers[entry].prepareSimulate(&req)
		if err != nil {
			t.Fatal(err)
		}
		ownerAddr, self := servers[entry].node.Owner(string(op.key))
		if self {
			continue
		}
		for j, a := range addrs {
			if a == ownerAddr {
				return p, j
			}
		}
	}
	t.Fatal("no peer-owned payload found in 128 variants")
	return nil, 0
}

// postWithRID posts payload with an explicit client request id.
func postWithRID(t *testing.T, url, rid string, payload any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.RequestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestFleetTracePropagationAndStitching is the fleet-observability
// acceptance test: a request forwarded from the entry replica to the
// key's owner keeps its client-chosen request id end to end, the owner's
// job trace opens with a hop marker naming the entry replica, and the
// entry replica serves one stitched trace containing both hops under the
// original request id.
func TestFleetTracePropagationAndStitching(t *testing.T) {
	servers, urls, addrs := startPeeredServers(t, 2)
	const entry = 0
	payload, ownerIdx := peerOwnedSim(t, servers, addrs, entry, 0)
	const rid = "fedtest-stitch-0001"

	resp, body := postWithRID(t, urls[entry]+"/v1/simulate", rid, payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded simulate: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cluster.RequestIDHeader); got != rid {
		t.Fatalf("response request id = %q; want the client-chosen %q", got, rid)
	}
	if got := resp.Header.Get(clusterPeerHeader); got != addrs[ownerIdx] {
		t.Fatalf("X-Cluster-Peer = %q; want owner %q", got, addrs[ownerIdx])
	}

	// The owner retained the job trace under the ENTRY's request id, and
	// the trace opens with the hop marker naming the forwarding replica.
	waitForCond(t, func() bool {
		_, ok := servers[ownerIdx].flight.GetByRequestID(rid)
		return ok
	})
	ot, _ := servers[ownerIdx].flight.GetByRequestID(rid)
	if ot.Report == nil {
		t.Fatal("owner trace has no report")
	}
	hop := ot.Report.Stage("hop")
	if hop == nil {
		t.Fatalf("owner trace has no hop marker span:\n%s", ot.Report.RenderTree())
	}
	if hop.Attrs["forwarded"] != true {
		t.Fatalf("hop marker attrs = %v; want forwarded=true", hop.Attrs)
	}
	if hop.Attrs["peer"] != addrs[entry] {
		t.Fatalf("hop marker peer = %v; want entry %q", hop.Attrs["peer"], addrs[entry])
	}

	// The entry replica retained its forward stub under the same id.
	waitForCond(t, func() bool {
		_, ok := servers[entry].flight.Get("fwd-" + rid)
		return ok
	})

	// One stitched trace from the entry replica, under the original
	// request id, containing both hops.
	tresp, tbody := getRaw(t, urls[entry]+"/v1/traces/"+rid)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("stitched trace: %d %s", tresp.StatusCode, tbody)
	}
	var st struct {
		RequestID string `json:"request_id"`
		Stitched  bool   `json:"stitched"`
		Hops      []struct {
			Peer  string `json:"peer"`
			Trace struct {
				ID        string `json:"id"`
				RequestID string `json:"request_id"`
			} `json:"trace"`
		} `json:"hops"`
		Trace struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(tbody, &st); err != nil {
		t.Fatalf("stitched trace decode: %v\n%s", err, tbody)
	}
	if !st.Stitched || st.RequestID != rid {
		t.Fatalf("stitched=%v request_id=%q; want true/%q", st.Stitched, st.RequestID, rid)
	}
	if len(st.Hops) != 2 {
		t.Fatalf("stitched hops = %d; want 2\n%s", len(st.Hops), tbody)
	}
	seen := map[string]string{}
	for _, h := range st.Hops {
		seen[h.Peer] = h.Trace.ID
		if h.Trace.RequestID != rid {
			t.Fatalf("hop %s request id = %q; want %q", h.Peer, h.Trace.RequestID, rid)
		}
	}
	if seen[addrs[entry]] != "fwd-"+rid {
		t.Fatalf("entry hop trace id = %q; want %q", seen[addrs[entry]], "fwd-"+rid)
	}
	if _, ok := seen[addrs[ownerIdx]]; !ok {
		t.Fatalf("stitched trace missing owner hop %q: %v", addrs[ownerIdx], seen)
	}
	if len(st.Trace.Stages) != 2 {
		t.Fatalf("merged report stages = %d; want one per hop", len(st.Trace.Stages))
	}
}

// TestFleetForwardedPanicRetainedAtEntry: when the owner's execution
// panics, the failure must land in the ENTRY replica's flight-recorder
// error ring too — the entry replica is the one the client talked to, so
// "why did my request fail" must be answerable there.
func TestFleetForwardedPanicRetainedAtEntry(t *testing.T) {
	servers, urls, addrs := startPeeredServers(t, 2)
	const entry = 0
	payload, _ := peerOwnedSim(t, servers, addrs, entry, 1000)
	const rid = "fedtest-panic-0001"

	if err := faults.Arm("service.exec.panic=always", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	resp, body := postWithRID(t, urls[entry]+"/v1/simulate", rid, payload)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("forwarded panic: %d %s; want 500", resp.StatusCode, body)
	}
	faults.Disarm()

	waitForCond(t, func() bool {
		_, ok := servers[entry].flight.Get("fwd-" + rid)
		return ok
	})
	et, _ := servers[entry].flight.Get("fwd-" + rid)
	if et.Class != flight.ClassError {
		t.Fatalf("entry forward stub class = %q; want error", et.Class)
	}
	if et.ErrorKind != ErrKindPanic {
		t.Fatalf("entry forward stub error kind = %q; want %q", et.ErrorKind, ErrKindPanic)
	}
	if et.RequestID != rid {
		t.Fatalf("entry forward stub request id = %q; want %q", et.RequestID, rid)
	}
}

// TestClusterOverviewSingleAndFleet: /v1/cluster/overview reports every
// live replica's saturation, cache tiers, SLO state, and ring membership
// from ANY replica; a single-replica daemon serves a one-member view.
func TestClusterOverview(t *testing.T) {
	servers, urls, _ := startPeeredServers(t, 2)
	_ = servers

	type ov struct {
		Self       string `json:"self"`
		AliveCount int    `json:"alive_count"`
		DeadCount  int    `json:"dead_count"`
		Replicas   []struct {
			Addr  string `json:"addr"`
			Alive bool   `json:"alive"`
			Stats *struct {
				Saturation struct {
					Workers       int `json:"workers"`
					QueueCapacity int `json:"queue_capacity"`
				} `json:"saturation"`
				Cache       map[string]map[string]any `json:"cache"`
				RingMembers int                       `json:"ring_members"`
			} `json:"stats"`
		} `json:"replicas"`
	}

	// Both members with stats, from either replica: the aggregator polls
	// in the background, so allow it a few rounds.
	for _, u := range urls {
		var o ov
		waitForCond(t, func() bool {
			resp, body := getRaw(t, u+"/v1/cluster/overview")
			if resp.StatusCode != http.StatusOK {
				return false
			}
			if err := json.Unmarshal(body, &o); err != nil {
				return false
			}
			if o.AliveCount != 2 || len(o.Replicas) != 2 {
				return false
			}
			for _, rep := range o.Replicas {
				if !rep.Alive || rep.Stats == nil {
					return false
				}
			}
			return true
		})
		for _, rep := range o.Replicas {
			if rep.Stats.Saturation.Workers <= 0 || rep.Stats.Saturation.QueueCapacity <= 0 {
				t.Fatalf("replica %s: empty saturation block: %+v", rep.Addr, rep.Stats.Saturation)
			}
			if _, ok := rep.Stats.Cache["mem"]; !ok {
				t.Fatalf("replica %s: no mem cache tier", rep.Addr)
			}
			if rep.Stats.RingMembers != 2 {
				t.Fatalf("replica %s: ring members = %d; want 2", rep.Addr, rep.Stats.RingMembers)
			}
		}
	}

	// Single-replica daemons serve a one-member overview on demand.
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := getRaw(t, ts.URL+"/v1/cluster/overview")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single overview: %d %s", resp.StatusCode, body)
	}
	var o ov
	if err := json.Unmarshal(body, &o); err != nil {
		t.Fatal(err)
	}
	if o.AliveCount != 1 || len(o.Replicas) != 1 || o.Replicas[0].Stats == nil {
		t.Fatalf("single overview: %s", body)
	}
}

package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/telemetry"
)

// TestFleetPprofGatedByFlag: the profiling surface must not exist unless
// the operator asked for it.
func TestFleetPprofGatedByFlag(t *testing.T) {
	off := quickDaemon(t, func(fleet.AgentRecord) fleet.AgentClient { return &memAgent{} }, nil)
	srvOff := httptest.NewServer(off.handler())
	defer srvOff.Close()
	resp, err := http.Get(srvOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ without -pprof = %d, want 404", resp.StatusCode)
	}

	on := mustDaemon(t, fleetOptions{
		registry:     fleet.RegistryConfig{HeartbeatInterval: time.Second},
		rollout:      fleet.RolloutConfig{CanaryFraction: 0.34, Waves: 1, WindowTicks: 1, PushTicks: 1},
		conns:        func(fleet.AgentRecord) fleet.AgentClient { return &memAgent{} },
		pprofEnabled: true,
	}, nil)
	srvOn := httptest.NewServer(on.handler())
	defer srvOn.Close()
	resp, err = http.Get(srvOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/ with -pprof = %d:\n%s", resp.StatusCode, body)
	}
}

// TestFleetDebugTrace drives a rollout to promotion and checks that
// /debug/trace exposes the resulting rollout/push span tree.
func TestFleetDebugTrace(t *testing.T) {
	agents := map[string]*memAgent{"n1": {}, "n2": {}, "n3": {}}
	d := quickDaemon(t, func(a fleet.AgentRecord) fleet.AgentClient { return agents[a.ID] }, nil)
	for id := range agents {
		if _, err := d.rep.Registry().Register(d.now(), id, id+":1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.rep.Propose(d.now(), "v2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30 && d.rep.Coordinator().Status().Active; i++ {
		d.tick()
	}
	if st := d.rep.Coordinator().Status(); st.LastDecision != guard.DecisionPromoted {
		t.Fatalf("rollout = %+v, want promoted", st)
	}

	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var v traceView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace = %d", resp.StatusCode)
	}
	if v.Total == 0 || v.LastTrace == "" {
		t.Fatalf("trace view after rollout = %+v, want recorded spans", v)
	}
	names := map[string]bool{}
	for _, s := range v.Spans {
		names[s.Name] = true
		if s.Process != "lachesis-fleet" {
			t.Fatalf("span %q carries process %q, want lachesis-fleet", s.Name, s.Process)
		}
	}
	if !names["rollout"] || !names["push"] {
		t.Fatalf("span names = %v, want rollout and push", names)
	}

	// ?trace= narrows to one trace; every span must belong to it.
	resp, err = http.Get(srv.URL + "/debug/trace?trace=" + v.LastTrace)
	if err != nil {
		t.Fatal(err)
	}
	var filtered traceView
	if err := json.NewDecoder(resp.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(filtered.Spans) == 0 {
		t.Fatalf("?trace=%s returned no spans", v.LastTrace)
	}
	for _, s := range filtered.Spans {
		if s.Trace != v.LastTrace {
			t.Fatalf("filtered span %q belongs to trace %s, want %s", s.Name, s.Trace, v.LastTrace)
		}
	}

	// ?n= bounds the tail; a bad value is a client error.
	resp, err = http.Get(srv.URL + "/debug/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var tail traceView
	_ = json.NewDecoder(resp.Body).Decode(&tail)
	resp.Body.Close()
	if len(tail.Spans) != 1 {
		t.Fatalf("?n=1 returned %d spans, want 1", len(tail.Spans))
	}
	resp, err = http.Get(srv.URL + "/debug/trace?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?n=bogus = %d, want 400", resp.StatusCode)
	}
}

// TestFleetMetricsBuildInfoAndUptime: every scrape must carry the build
// identity gauge and a fresh uptime reading.
func TestFleetMetricsBuildInfoAndUptime(t *testing.T) {
	d := quickDaemon(t, func(fleet.AgentRecord) fleet.AgentClient { return &memAgent{} }, nil)
	d.start = time.Now().Add(-3 * time.Second)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(body, telemetry.MetricBuildInfo) ||
		!strings.Contains(body, `component="lachesis-fleet"`) ||
		!strings.Contains(body, `go_version="go`) {
		t.Fatalf("metrics missing build info:\n%s", body)
	}
	uptime := -1.0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, telemetry.MetricUptimeSeconds) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("uptime line %q: %v", line, err)
			}
			uptime = v
		}
	}
	if uptime < 3 {
		t.Fatalf("uptime = %v, want >= 3s (start backdated)", uptime)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

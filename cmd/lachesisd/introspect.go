package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"lachesis/internal/agent"
	"lachesis/internal/core"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/httpx"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// The introspection server exposes the daemon's self-telemetry while it
// runs: Prometheus metrics, a machine-readable health snapshot, and the
// tail of the decision-audit trail. The daemon's step loop and the HTTP
// handlers share one mutex — the middleware is not concurrency-safe by
// itself, and a scrape must never observe a half-applied schedule.

// healthView is the JSON shape of GET /health.
type healthView struct {
	Status   string              `json:"status"` // "ok" or "degraded"
	Bindings []bindingHealthView `json:"bindings"`
	Drivers  []driverHealthView  `json:"drivers"`
	// Reconcile is present when the reconciliation loop is enabled.
	Reconcile *reconcileView `json:"reconcile,omitempty"`
	// Rollout is present when the canary controller is wired: the state
	// of the in-flight (or most recent) policy rollout.
	Rollout *guard.Status `json:"rollout,omitempty"`
	// Watchdog is present when decision-cycle deadlines are configured.
	Watchdog *guard.WatchdogStatus `json:"watchdog,omitempty"`
}

// reconcileView is the /health summary of the reconciliation loop.
type reconcileView struct {
	Passes         int64 `json:"passes"`
	TotalDrift     int64 `json:"total_drift"`
	TotalRepairs   int64 `json:"total_repairs"`
	DesiredEntries int   `json:"desired_entries"`
	// Last pass detail: how much drift the most recent pass saw and fixed.
	LastChecked  int  `json:"last_checked"`
	LastDrifted  int  `json:"last_drifted"`
	LastRepaired int  `json:"last_repaired"`
	LastDeferred int  `json:"last_deferred"`
	Converged    bool `json:"converged"`
	// LastConvergedAtNs is the daemon-relative step time of the most
	// recent converged pass (-1 before the first convergence).
	LastConvergedAtNs int64 `json:"last_converged_at_ns"`
	EverConverged     bool  `json:"ever_converged"`
}

func reconcileJSON(rec *reconcile.Reconciler, state *reconcile.DesiredState) *reconcileView {
	if rec == nil {
		return nil
	}
	st := rec.Status()
	v := &reconcileView{
		Passes:            st.Passes,
		TotalDrift:        st.TotalDrift,
		TotalRepairs:      st.TotalRepairs,
		LastChecked:       st.Last.Checked,
		LastDrifted:       st.Last.Drifted,
		LastRepaired:      st.Last.Repaired,
		LastDeferred:      st.Last.Deferred,
		Converged:         st.Last.Converged,
		LastConvergedAtNs: st.LastConvergedAt.Nanoseconds(),
		EverConverged:     st.EverConverged,
	}
	if state != nil {
		v.DesiredEntries = state.Len()
	}
	return v
}

type bindingHealthView struct {
	Policy              string `json:"policy"`
	Translator          string `json:"translator"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	LastSuccessNs       int64  `json:"last_success_ns"`
	HasSucceeded        bool   `json:"has_succeeded"`
	OpenUntilNs         int64  `json:"open_until_ns,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

type driverHealthView struct {
	Driver              string `json:"driver"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	LastSuccessNs       int64  `json:"last_success_ns"`
	HasSucceeded        bool   `json:"has_succeeded"`
	ServingStale        bool   `json:"serving_stale"`
	LastError           string `json:"last_error,omitempty"`
}

func healthJSON(h core.Health) healthView {
	v := healthView{
		Status:   "ok",
		Bindings: make([]bindingHealthView, 0, len(h.Bindings)),
		Drivers:  make([]driverHealthView, 0, len(h.Drivers)),
	}
	if !h.Healthy() {
		v.Status = "degraded"
	}
	for _, b := range h.Bindings {
		v.Bindings = append(v.Bindings, bindingHealthView{
			Policy:              b.Policy,
			Translator:          b.Translator,
			State:               b.State.String(),
			ConsecutiveFailures: b.ConsecutiveFailures,
			LastSuccessNs:       b.LastSuccess.Nanoseconds(),
			HasSucceeded:        b.HasSucceeded,
			OpenUntilNs:         b.OpenUntil.Nanoseconds(),
			LastError:           b.LastError,
		})
	}
	for _, d := range h.Drivers {
		v.Drivers = append(v.Drivers, driverHealthView{
			Driver:              d.Driver,
			ConsecutiveFailures: d.ConsecutiveFailures,
			LastSuccessNs:       d.LastSuccess.Nanoseconds(),
			HasSucceeded:        d.HasSucceeded,
			ServingStale:        d.ServingStale,
			LastError:           d.LastError,
		})
	}
	return v
}

// defaultAuditTail is how many events /debug/audit returns without ?n=.
const defaultAuditTail = 64

// defaultTraceTail is how many spans /debug/trace returns without ?n=
// (the newest ones — several cycles under the slow-span floor).
const defaultTraceTail = 128

// traceView is the JSON shape of GET /debug/trace.
type traceView struct {
	// Total counts every span recorded since start (the ring holds only
	// the most recent ones).
	Total int64 `json:"total"`
	// LastTrace is the most recent root trace ID ("" before the first).
	LastTrace string `json:"last_trace,omitempty"`
	// Trace echoes the ?trace= filter when one was given.
	Trace string `json:"trace,omitempty"`
	// Spans are the selected spans, oldest first.
	Spans []span.Span `json:"spans"`
	// Flight summarizes the anomaly flight recorder when one is wired.
	Flight *flightView `json:"flight,omitempty"`
}

// flightView is the /debug/trace summary of the flight recorder.
type flightView struct {
	Trips    int    `json:"trips"`
	LastDump string `json:"last_dump,omitempty"`
}

// maxPolicyPayload bounds a POST /policy request body.
const maxPolicyPayload = 1 << 20

// introspectionDeps bundles everything the introspection handlers read.
// mu serializes handler access with the daemon's step loop; the other
// fields are optional (nil hides the matching endpoint or health section).
type introspectionDeps struct {
	mu     *sync.Mutex
	mw     *core.Middleware
	trail  *core.AuditTrail
	rec    *reconcile.Reconciler
	state  *reconcile.DesiredState
	canary *guard.Canary
	wd     *guard.Watchdog
	// agent stages POST /policy payloads through the daemon's one
	// proposal path (epoch gate first: a deposed coordinator's push gets
	// a 403). Called with mu held; nil disables the endpoint.
	agent *agent.Agent
	// spans backs GET /debug/trace (recent spans, ?trace=<id>). nil
	// hides the endpoint.
	spans *span.Recorder
	// flight, when set, adds its trip/dump counters to /debug/trace.
	flight *span.FlightRecorder
	// pprofEnabled mounts net/http/pprof under /debug/pprof/ (the -pprof
	// flag); off by default so the profiler is never an accidental
	// production endpoint.
	pprofEnabled bool
	// start is the process start time behind lachesis_uptime_seconds;
	// zero skips the uptime refresh (unit tests without a daemon).
	start time.Time
}

// newIntrospectionHandler builds the /metrics, /health, /policy and
// /debug/audit mux.
func newIntrospectionHandler(d introspectionDeps) http.Handler {
	mu, mw, trail := d.mu, d.mw, d.trail
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		mu.Lock()
		if !d.start.IsZero() {
			telemetry.TouchUptime(mw.Telemetry(), d.start)
		}
		err := mw.Telemetry().WritePrometheus(&buf)
		mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = buf.WriteTo(w)
	})

	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := mw.Health()
		rv := reconcileJSON(d.rec, d.state)
		var rollout *guard.Status
		if d.canary != nil {
			st := d.canary.Status()
			rollout = &st
		}
		var wdStatus *guard.WatchdogStatus
		if d.wd != nil {
			st := d.wd.Status()
			wdStatus = &st
		}
		mu.Unlock()
		v := healthJSON(h)
		v.Reconcile = rv
		v.Rollout = rollout
		v.Watchdog = wdStatus
		w.Header().Set("Content-Type", "application/json")
		if v.Status != "ok" {
			// Load balancers and liveness probes read the status code; the
			// body carries the per-binding detail.
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})

	mux.HandleFunc("/policy", func(w http.ResponseWriter, r *http.Request) {
		if d.canary == nil {
			http.Error(w, "no canary controller", http.StatusNotFound)
			return
		}
		switch r.Method {
		case http.MethodGet:
			mu.Lock()
			st := d.canary.Status()
			mu.Unlock()
			writeJSON(w, http.StatusOK, st)
		case http.MethodPost:
			if d.agent == nil {
				http.Error(w, "policy rollout unavailable", http.StatusNotImplemented)
				return
			}
			body, err := io.ReadAll(io.LimitReader(r.Body, maxPolicyPayload))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			// A fleet push carries its coordinator's fencing epoch as an
			// X-Lachesis-Epoch header. The gate rejects epochs below the
			// highest this agent has witnessed BEFORE the payload is
			// staged: a deposed leader's stale push gets a 403, never a
			// rollout. Absent header (epoch 0) means a local, unfenced
			// proposal and is always admitted.
			var epoch int64
			if h := r.Header.Get(fleet.EpochHeader); h != "" {
				epoch, err = strconv.ParseInt(h, 10, 64)
				if err != nil {
					http.Error(w, fmt.Sprintf("bad %s header: %v", fleet.EpochHeader, err), http.StatusBadRequest)
					return
				}
			}
			// A fleet push carries its rollout's trace context out-of-band
			// as a Traceparent header; the staged canary joins that trace,
			// so one trace ID follows coordinator -> agent -> verdict. An
			// absent or malformed header yields the zero context and the
			// rollout opens a local trace instead.
			parent, _ := span.ParseTraceparent(r.Header.Get(span.TraceparentHeader))
			var now time.Duration
			if !d.start.IsZero() {
				now = time.Since(d.start)
			}
			mu.Lock()
			_, err = d.agent.Propose(now, body, parent, epoch)
			st := d.canary.Status()
			mu.Unlock()
			switch {
			case fleet.IsFenced(err):
				http.Error(w, err.Error(), http.StatusForbidden)
			case agent.IsBadPolicy(err):
				// The proposer's bytes are at fault: a client error,
				// never a conflict the fan-out would count as healthy.
				http.Error(w, err.Error(), http.StatusBadRequest)
			case err != nil:
				// 409: a rollout already in flight must not silently
				// displace the running candidate.
				http.Error(w, err.Error(), http.StatusConflict)
			default:
				writeJSON(w, http.StatusAccepted, st)
			}
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})

	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if d.spans == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		n := defaultTraceTail
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		// The recorder is lock-free to read; mu is not needed here, and
		// skipping it keeps the endpoint usable while a cycle is stuck —
		// exactly when its trace matters most.
		v := traceView{Total: d.spans.Total(), LastTrace: d.spans.LastTrace()}
		if id := r.URL.Query().Get("trace"); id != "" {
			v.Trace = id
			v.Spans = d.spans.TraceSpans(id)
		} else {
			v.Spans = d.spans.Snapshot()
			if len(v.Spans) > n {
				v.Spans = v.Spans[len(v.Spans)-n:]
			}
		}
		if d.flight != nil {
			v.Flight = &flightView{Trips: d.flight.Trips(), LastDump: d.flight.LastDump()}
		}
		writeJSON(w, http.StatusOK, v)
	})

	if d.pprofEnabled {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
		n := defaultAuditTail
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		mu.Lock()
		events := trail.Last(n)
		total := trail.Total()
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total  int64             `json:"total"`
			Events []core.AuditEvent `json:"events"`
		}{Total: total, Events: events})
	})

	return mux
}

// writeJSON renders v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// introspectionServer wraps the HTTP server lifecycle so run() can start
// it before the loop and tear it down on exit.
type introspectionServer struct {
	srv  *http.Server
	addr string
}

func startIntrospection(addr string, d introspectionDeps) (*introspectionServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &introspectionServer{
		srv:  httpx.NewServer(newIntrospectionHandler(d)),
		addr: ln.Addr().String(),
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

func (s *introspectionServer) Close() { _ = s.srv.Close() }

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/fleet"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// maxPolicyPayload bounds a POST /fleet/policy request body (the same
// cap lachesisd puts on its own /policy).
const maxPolicyPayload = 1 << 20

// defaultAuditTail is how many events /debug/audit returns without ?n=.
const defaultAuditTail = 64

// defaultTraceTail is how many spans /debug/trace returns without ?n=.
const defaultTraceTail = 128

// fleetOptions assembles a daemon.
type fleetOptions struct {
	registry fleet.RegistryConfig
	rollout  fleet.RolloutConfig
	conns    fleet.ConnFactory
	sink     core.AuditSink
	// spanSink optionally mirrors every completed span (JSONL via
	// -span-log); the in-memory ring behind /debug/trace is always on.
	spanSink span.Sink
	// flightDir enables the anomaly flight recorder: a per-agent push
	// breaker opening dumps the span ring there. Empty disables.
	flightDir string
	// pprofEnabled mounts net/http/pprof under /debug/pprof/.
	pprofEnabled bool
	// id is this coordinator's HA identity (lease holder name). Empty
	// defaults to "coordinator".
	id string
	// peers are the other coordinators (name -> client) for lease
	// observation and checkpoint replication.
	peers map[string]fleet.PeerClient
	// leaseTTL is the leader-lease lifetime (default 3s).
	leaseTTL time.Duration
	// standby starts the daemon as a follower: it serves reads, applies
	// checkpoints, and promotes itself only when the observed leader
	// lease expires or is released. Default (false) acquires the lease at
	// startup.
	standby bool
}

// fleetDaemon is the HTTP surface over one fleet.Replica, plus the
// daemon's observability: audit trail, telemetry, the span ring and
// the flight recorder.
type fleetDaemon struct {
	rep    *fleet.Replica
	tel    *telemetry.Registry
	trail  *core.AuditTrail
	spans  *span.Recorder
	flight *span.FlightRecorder
	pprof  bool
	start  time.Time
}

// newFleetDaemon builds the daemon's replica. state (nil: in-memory)
// holds the registry, rollout and lease files; over a directory that
// already holds them this is the warm restart — registry leases
// re-anchor at now, an in-flight rollout resumes at its persisted
// phase, and a leading daemon acquires once, above every epoch the
// lease file records. warnf receives state-file corruption warnings.
func newFleetDaemon(opts fleetOptions, state reconcile.FS, warnf func(format string, args ...any)) (*fleetDaemon, error) {
	d := &fleetDaemon{
		tel:   telemetry.NewRegistry(),
		trail: core.NewAuditTrail(0, opts.sink),
		pprof: opts.pprofEnabled,
		start: time.Now(),
	}
	telemetry.RegisterBuildInfo(d.tel, "lachesis-fleet")
	// Tracing is always on: each rollout opens a "rollout" root span whose
	// context parents every per-agent "push" and rides each HTTP hop as a
	// Traceparent header, so one trace ID spans coordinator -> agent ->
	// canary verdict.
	d.spans = span.New(span.Config{Process: "lachesis-fleet", Sink: opts.spanSink})
	id := opts.id
	if id == "" {
		id = "coordinator"
	}
	cfg := fleet.ReplicaConfig{
		ID: id, LeaseTTL: opts.leaseTTL,
		Registry: opts.registry, Rollout: opts.rollout, Conns: opts.conns,
		Standby: opts.standby,
		Audit:   d.trail, Telemetry: d.tel, Spans: d.spans,
	}
	if state != nil {
		cfg.Store = fleet.NewStore(state, warnf)
		// Older state directories kept the fleet last-good in the agent
		// policy-store file rather than in the rollout state; it seeds
		// the rollout only when the rollout records none.
		raw, ok, err := reconcile.NewStore(state, warnf).LoadLastGoodPolicy()
		if err != nil {
			return nil, fmt.Errorf("load fleet last-good: %w", err)
		}
		if ok {
			cfg.LastGood = raw
		}
	}
	rep, err := fleet.NewReplica(d.now(), cfg)
	if err != nil {
		return nil, err
	}
	d.rep = rep
	for name, pc := range opts.peers {
		rep.AddPeer(name, pc)
	}
	if opts.flightDir != "" {
		d.flight = span.NewFlightRecorder(d.spans, opts.flightDir, 0)
		flight := d.flight
		rep.Coordinator().Fanout().SetBreakerHook(func(now time.Duration, agent string) {
			_, _ = flight.Trip(span.Trigger{At: now, Kind: span.TriggerBreakerOpen, Detail: "agent " + agent})
		})
	}
	return d, nil
}

// now is the daemon-relative clock feeding leases and rollout ticks.
func (d *fleetDaemon) now() time.Duration { return time.Since(d.start) }

// traceView is the JSON shape of GET /debug/trace.
type traceView struct {
	Total     int64       `json:"total"`
	LastTrace string      `json:"last_trace,omitempty"`
	Trace     string      `json:"trace,omitempty"`
	Spans     []span.Span `json:"spans"`
	Flight    *flightView `json:"flight,omitempty"`
}

// flightView is the /debug/trace summary of the flight recorder.
type flightView struct {
	Trips    int    `json:"trips"`
	LastDump string `json:"last_dump,omitempty"`
}

// fleetHealth is the JSON shape of GET /fleet/health.
type fleetHealth struct {
	Status  string            `json:"status"` // "ok" or "degraded"
	Agents  map[string]int    `json:"agents"` // count per lease state
	Rollout fleet.FleetStatus `json:"rollout"`
	// Leading / Epoch / Holder summarize the HA lease view.
	Leading bool   `json:"leading"`
	Epoch   int64  `json:"epoch"`
	Holder  string `json:"holder,omitempty"`
}

// standby answers a write on a non-leading coordinator: 503 plus a
// leader hint, so beacons and operators fail over instead of mutating
// follower state.
func (d *fleetDaemon) standby(w http.ResponseWriter) bool {
	lease := d.rep.Lease()
	if lease.Leading {
		return false
	}
	w.Header().Set(fleet.EpochHeader, strconv.FormatInt(lease.Epoch, 10))
	http.Error(w, fmt.Sprintf("standby: not leading (leader %s, epoch %d)", lease.Holder, lease.Epoch),
		http.StatusServiceUnavailable)
	return true
}

// handler builds the coordinator HTTP mux.
func (d *fleetDaemon) handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/register", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if d.standby(w) {
			return
		}
		var req fleet.RegisterRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reg := d.rep.Registry()
		rec, err := reg.Register(d.now(), req.ID, req.Addr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The epoch in the response ratchets the agent's fencing gate, so
		// the whole fleet learns about a new leader within one
		// registration round — not only the agents it pushes to.
		writeJSON(w, http.StatusOK, fleet.RegisterResponse{
			Generation: rec.Generation,
			IntervalMs: reg.Config().HeartbeatInterval.Milliseconds(),
			Epoch:      d.fenceEpoch(),
		})
	})

	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if d.standby(w) {
			return
		}
		var req fleet.HeartbeatRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set(fleet.EpochHeader, strconv.FormatInt(d.fenceEpoch(), 10))
		switch err := d.rep.Registry().Heartbeat(d.now(), req.ID); {
		case errors.Is(err, fleet.ErrUnknownAgent):
			// 404 tells the beacon to re-register (new lease, new generation).
			http.Error(w, err.Error(), http.StatusNotFound)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})

	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.rep.Lease())
	})

	mux.HandleFunc("/replicate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var cp fleet.Checkpoint
		if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&cp); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch err := d.rep.ApplyCheckpoint(d.now(), cp); {
		case fleet.IsFenced(err):
			// A stale sender (or a checkpoint older than one applied):
			// fenced exactly like a stale push.
			w.Header().Set(fleet.EpochHeader, strconv.FormatInt(d.rep.Lease().Epoch, 10))
			http.Error(w, err.Error(), http.StatusForbidden)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})

	mux.HandleFunc("/fleet/agents", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Agents []fleet.AgentRecord `json:"agents"`
		}{Agents: d.rep.Registry().Agents()})
	})

	mux.HandleFunc("/fleet/policy", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, d.rep.Coordinator().Status())
		case http.MethodPost:
			if d.standby(w) {
				return
			}
			body, err := io.ReadAll(io.LimitReader(r.Body, maxPolicyPayload))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := d.rep.Propose(d.now(), r.URL.Query().Get("version"), body); err != nil {
				// 409 mirrors the agent API: a rollout in flight must not be
				// silently displaced.
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			writeJSON(w, http.StatusAccepted, d.rep.Coordinator().Status())
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})

	mux.HandleFunc("/fleet/health", func(w http.ResponseWriter, r *http.Request) {
		agents := map[string]int{}
		active := 0
		all := d.rep.Registry().Agents()
		for _, a := range all {
			agents[a.State]++
			if a.State == fleet.LeaseActive {
				active++
			}
		}
		lease := d.rep.Lease()
		h := fleetHealth{Status: "ok", Agents: agents, Rollout: d.rep.Coordinator().Status(),
			Leading: lease.Leading, Epoch: lease.Epoch, Holder: lease.Holder}
		code := http.StatusOK
		if active == 0 && len(all) > 0 {
			h.Status = "degraded" // a fleet with zero reachable agents is not ok
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		telemetry.TouchUptime(d.tel, d.start)
		if err := d.tel.WritePrometheus(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = buf.WriteTo(w)
	})

	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		n := defaultTraceTail
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
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

	if d.pprof {
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
		writeJSON(w, http.StatusOK, struct {
			Total  int64             `json:"total"`
			Events []core.AuditEvent `json:"events"`
		}{Total: d.trail.Total(), Events: d.trail.Last(n)})
	})

	return mux
}

// fenceEpoch is the epoch register and heartbeat responses carry: ours
// while leading, 0 otherwise.
func (d *fleetDaemon) fenceEpoch() int64 {
	if lease := d.rep.Lease(); lease.Leading {
		return lease.Epoch
	}
	return 0
}

// tick runs one coordinator cycle.
func (d *fleetDaemon) tick() { d.rep.Tick(d.now()) }

// shutdown takes the final state checkpoint on SIGTERM/SIGINT.
func (d *fleetDaemon) shutdown() { d.rep.Shutdown(d.now()) }

// writeJSON renders v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

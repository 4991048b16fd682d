// Command lachesisd runs the Lachesis middleware against a real Linux
// host: it periodically enforces user-defined priorities on the threads of
// running stream processing queries through nice and cgroup cpu.shares,
// exactly as the simulated experiments do through internal/simctl.
//
// The daemon reads a JSON config describing the deployed entities
// (operator name -> thread id, per the SPE's monitoring API) and a static
// priority assignment per logical operator (the §5.1 "high-level policy" +
// transformation rule path). It defaults to -dry-run, printing the control
// operations it would perform.
//
// Example config:
//
//	{
//	  "periodMillis": 1000,
//	  "cgroupRoot": "/sys/fs/cgroup/cpu/lachesis",
//	  "cgroupVersion": 1,
//	  "translator": "nice",
//	  "entities": [
//	    {"name": "q.count.0", "query": "q", "tid": 4242, "logical": ["count"]},
//	    {"name": "q.toll.0",  "query": "q", "tid": 4243, "logical": ["toll"]}
//	  ],
//	  "priorities": {"count": 10, "toll": 1}
//	}
//
// Optional "guard", "watchdog" and "canary" sections enable the safety
// layer: batch invariants between the translator and the write chain, a
// decision-cycle watchdog, and canary-style policy hot reload (SIGHUP
// re-reads the config's priorities and stages them as a candidate;
// POST /policy on the introspection server does the same over HTTP).
//
// With -fleet the daemon additionally registers with a lachesis-fleet
// coordinator and heartbeats its lease; coordinator-pushed policies
// arrive through the same POST /policy canary path, named by the fleet
// rollout version and attributed to their origin in the audit trail.
// Fleet membership never overrides local safety: a dead coordinator
// leaves the daemon enforcing its last-good policy autonomously.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/oslinux"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// entityConfig is one physical operator in the config file.
type entityConfig struct {
	Name       string   `json:"name"`
	Query      string   `json:"query"`
	TID        int      `json:"tid"`
	Logical    []string `json:"logical"`
	Downstream []string `json:"downstream"`
}

// daemonConfig is the lachesisd config file format.
type daemonConfig struct {
	PeriodMillis  int                `json:"periodMillis"`
	CgroupRoot    string             `json:"cgroupRoot"`
	CgroupVersion int                `json:"cgroupVersion"`
	Translator    string             `json:"translator"`
	Entities      []entityConfig     `json:"entities"`
	Priorities    map[string]float64 `json:"priorities"`
	// Guard enables batch-invariant validation between the translator and
	// the write chain. Absent = no guard.
	Guard *guardConfig `json:"guard,omitempty"`
	// Watchdog enables per-phase decision-cycle deadlines. Absent = none.
	Watchdog *watchdogConfig `json:"watchdog,omitempty"`
	// Canary tunes the policy-rollout controller (the controller itself is
	// always on — it is what SIGHUP and POST /policy propose through).
	Canary *canaryConfig `json:"canary,omitempty"`
}

// guardConfig is the "guard" config section; zero-valued bounds select
// the full kernel ranges (see guard.Invariants).
type guardConfig struct {
	NiceMin            int     `json:"niceMin"`
	NiceMax            int     `json:"niceMax"`
	SharesMin          int     `json:"sharesMin"`
	SharesMax          int     `json:"sharesMax"`
	MaxChurn           int     `json:"maxChurn"`
	StarvationCycles   int     `json:"starvationCycles"`
	StarvationMinQueue float64 `json:"starvationMinQueue"`
}

func (c *guardConfig) invariants() guard.Invariants {
	return guard.Invariants{
		NiceMin: c.NiceMin, NiceMax: c.NiceMax,
		SharesMin: c.SharesMin, SharesMax: c.SharesMax,
		MaxChurn:           c.MaxChurn,
		StarvationCycles:   c.StarvationCycles,
		StarvationMinQueue: c.StarvationMinQueue,
	}
}

// watchdogConfig is the "watchdog" config section; a zero deadline leaves
// that phase unbounded.
type watchdogConfig struct {
	FetchMillis    int `json:"fetchMillis"`
	ScheduleMillis int `json:"scheduleMillis"`
	ApplyMillis    int `json:"applyMillis"`
	TripAfter      int `json:"tripAfter"`
}

// canaryConfig is the "canary" config section; zero values select the
// guard package defaults.
type canaryConfig struct {
	Fraction            float64 `json:"fraction"`
	WindowCycles        int     `json:"windowCycles"`
	MaxLatencyFactor    float64 `json:"maxLatencyFactor"`
	MinThroughputFactor float64 `json:"minThroughputFactor"`
}

// policyConfig is the hot-reloadable policy payload: the "priorities"
// section of the config file, as staged by SIGHUP and POST /policy and
// persisted as the last-good policy. Origin and Version are optional
// attribution set by remote proposers (the fleet coordinator sends
// origin "fleet" and its rollout version): the version names the canary
// candidate — so the coordinator can recognize its own in-flight
// candidate when a retry hits 409 — and both are recorded in the audit
// trail.
type policyConfig struct {
	Priorities map[string]float64 `json:"priorities"`
	Origin     string             `json:"origin,omitempty"`
	Version    string             `json:"version,omitempty"`
}

// buildPolicy constructs the daemon's policy from logical priorities (the
// §5.1 high-level-policy + transformation-rule path).
func buildPolicy(pri map[string]float64) core.Policy {
	return core.Transformed(&core.StaticLogicalPolicy{
		PolicyName: "configured",
		Priorities: core.LogicalSchedule(pri),
		Default:    0,
	}, core.MaxPriorityRule)
}

// staticDriver exposes the configured entities; it provides no metrics
// (the static policy needs none).
type staticDriver struct {
	entities []core.Entity
}

var _ core.Driver = (*staticDriver)(nil)

func (d *staticDriver) Name() string            { return "static" }
func (d *staticDriver) Entities() []core.Entity { return d.entities }
func (d *staticDriver) Provides(string) bool    { return false }
func (d *staticDriver) Fetch(metric string, _ time.Duration) (core.EntityValues, error) {
	return nil, &core.UnknownMetricError{Metric: metric, Driver: "static"}
}

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "lachesisd:", err)
		os.Exit(1)
	}
}

// run is the daemon body. sigs delivers shutdown signals (injectable so
// tests can exercise the graceful-shutdown path); nil never fires.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("lachesisd", flag.ContinueOnError)
	var (
		configPath        = fs.String("config", "", "path to JSON config (required)")
		dryRun            = fs.Bool("dry-run", true, "print control operations instead of performing them")
		iterations        = fs.Int("iterations", 1, "scheduling iterations to run (0 = forever)")
		introspect        = fs.String("introspect", "", "serve /metrics, /health and /debug/audit on this address (e.g. :9090)")
		auditPath         = fs.String("audit", "", "append the decision-audit trail as JSONL to this file")
		statePath         = fs.String("state", "", "directory persisting desired scheduling state across restarts (empty = in-memory)")
		reconcileInterval = fs.Duration("reconcile-interval", 0,
			"reconcile actual OS state against desired state this often (0 disables; needs a non-dry-run system)")
		fleetAddr = fs.String("fleet", "",
			"fleet coordinator base URL to register with and heartbeat (empty = standalone)")
		coordinators = fs.String("coordinators", "",
			"comma-separated additional coordinator addresses the beacon fails over to when the primary dies")
		agentID = fs.String("agent-id", "", "agent id reported to the fleet coordinator (default: hostname)")
		advertise = fs.String("advertise", "",
			"address the coordinator should reach this agent's policy API on (default: the -introspect address)")
		pprofEnabled = fs.Bool("pprof", false,
			"expose net/http/pprof under /debug/pprof/ on the introspection server")
		spanLog = fs.String("span-log", "",
			"append completed trace spans as JSONL to this file (the in-memory ring behind /debug/trace is always on)")
		writeQueue = fs.Bool("write-queue", false,
			"funnel all kernel-facing control writes through a single writer goroutine (submission queue); "+
				"concurrent appliers and the reconciler submit batches instead of issuing syscalls themselves")
		flightDir = fs.String("flight-dir", "",
			"write flight-recorder trace bundles into this directory on watchdog trips, guard blocks and canary rollbacks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -config")
	}
	// Fail fast on nonsense flags instead of limping along with a
	// silently disabled subsystem.
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "reconcile-interval" && *reconcileInterval <= 0 {
			flagErr = fmt.Errorf("-reconcile-interval must be positive, got %v", *reconcileInterval)
		}
	})
	if flagErr != nil {
		return flagErr
	}
	if *reconcileInterval > 0 && *statePath == "" {
		return errors.New("-reconcile-interval needs -state: reconciliation repairs drift against persisted desired state")
	}
	if *fleetAddr != "" && *advertise == "" && *introspect == "" {
		return errors.New("-fleet needs -introspect (or -advertise): the coordinator drives this agent through its policy API")
	}
	if *coordinators != "" && *fleetAddr == "" {
		return errors.New("-coordinators needs -fleet: the failover list extends the primary, it does not replace it")
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	var cfg daemonConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parse config: %w", err)
	}
	if cfg.PeriodMillis <= 0 {
		cfg.PeriodMillis = 1000
	}
	if cfg.CgroupRoot == "" {
		cfg.CgroupRoot = "/sys/fs/cgroup/cpu/lachesis"
	}

	osCfg := oslinux.Config{
		Root:    cfg.CgroupRoot,
		Version: oslinux.CgroupVersion(cfg.CgroupVersion),
	}
	if *dryRun {
		osCfg.System = oslinux.DryRunSystem{W: stdout}
	}
	ctl, err := oslinux.New(osCfg)
	if err != nil {
		return err
	}

	// The audit trail is always on (it backs /debug/audit); the JSONL sink
	// only when -audit names a file.
	var sink *core.JSONLSink
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		defer f.Close()
		sink = core.NewJSONLSink(f)
	}
	var trailSink core.AuditSink
	if sink != nil {
		trailSink = sink
	}
	trail := core.NewAuditTrail(0, trailSink)

	drv := &staticDriver{}
	entityByTID := make(map[int]string, len(cfg.Entities))
	for _, e := range cfg.Entities {
		drv.entities = append(drv.entities, core.Entity{
			Name:       e.Name,
			Driver:     "static",
			Query:      e.Query,
			Thread:     e.TID,
			Logical:    e.Logical,
			Downstream: e.Downstream,
		})
		entityByTID[e.TID] = e.Name
	}

	// Desired state records every intended nice/shares/placement. With
	// -state it survives restarts through a snapshot + fsync'd append log;
	// without, it lives in memory (reconciliation still works, warm
	// restart doesn't).
	var store *reconcile.Store
	if *statePath != "" {
		sfs, err := reconcile.NewOSFS(*statePath)
		if err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
		store = reconcile.NewStore(sfs, func(format string, args ...any) {
			fmt.Fprintf(stderr, "lachesisd: state: "+format+"\n", args...)
		})
		defer store.Close()
	}
	state, err := reconcile.NewDesiredState(store)
	if err != nil {
		return fmt.Errorf("desired state: %w", err)
	}
	if *statePath != "" {
		fmt.Fprintf(stderr, "lachesisd: desired state: %d entries (version %d) loaded from %s\n",
			state.Len(), state.Version(), *statePath)
	}
	var ident func(int) uint64
	if ctl.Observable() {
		ident = ctl.Identity
	}
	entityOf := func(tid int) string { return entityByTID[tid] }

	// Reconciliation requires observation: the dry-run system deliberately
	// cannot read /proc or cgroupfs (it must not report drift it could
	// never repair).
	willReconcile := *reconcileInterval > 0 && ctl.Observable()

	// The write chain, outermost first: the per-binding write coalescer
	// (diffing intended ops against the last applied value, suppressing
	// no-ops before they cost a syscall), intent recording into desired
	// state, the audit trail, the raw backend. Cross-writer ordering comes
	// from the DriverGate: apply workers lock the binding's drivers, the
	// reconciler takes the gate exclusively.
	//
	// Seeding the coalescer's mirror from persisted desired state is only
	// sound when the warm-restart reconcile below will converge the kernel
	// onto that state before the first decision; otherwise start cold.
	var seed *core.CoalescerSeed
	if willReconcile && state.Len() > 0 {
		seed = state.CoalescerSeed()
	}
	// With -write-queue the raw backend is fronted by a submission queue:
	// every layer above (audit, intent recording, coalescing, the
	// reconciler's exclusive repairs) composes unchanged, but the syscalls
	// themselves are issued by exactly one writer goroutine.
	var backend core.OSInterface = ctl
	var qos *driver.QueuedOS
	if *writeQueue {
		qos = ctl.Queued(0)
		defer qos.Close()
		backend = qos
	}
	co := core.NewCoalescer(reconcile.RecordOS(core.AuditOS(backend, trail), state, ident, entityOf), seed)
	var osIface core.OSInterface = co
	gate := core.NewDriverGate()

	mw := core.NewMiddleware(nil)
	mw.SetAudit(trail)
	mw.SetWriteGate(gate)
	ctl.SetTelemetry(mw.Telemetry())
	co.SetTelemetry(mw.Telemetry(), "static")
	state.SetTelemetry(mw.Telemetry())
	if qos != nil {
		qos.Queue().SetTelemetry(mw.Telemetry(), "oslinux")
	}
	telemetry.RegisterBuildInfo(mw.Telemetry(), "lachesisd")

	// The agent's identity, needed both by the fleet beacon and by the
	// fencing gate's audit records.
	id := *agentID
	if id == "" {
		if id, _ = os.Hostname(); id == "" {
			id = fmt.Sprintf("lachesisd-%d", os.Getpid())
		}
	}

	// The fencing gate ratchets the highest coordinator epoch this agent
	// has witnessed (persisted with -state, so a restart cannot be
	// clobbered by a deposed leader) and rejects pushes from below it.
	var egateStore fleet.EpochStore
	if store != nil {
		egateStore = store
	}
	egate, err := fleet.NewEpochGate(id, egateStore)
	if err != nil {
		return fmt.Errorf("fencing epoch: %w", err)
	}
	egate.SetAudit(trail)
	egate.SetTelemetry(mw.Telemetry())

	// Causal tracing is always on: the bounded span ring backs GET
	// /debug/trace and the flight recorder, at the production policy
	// (slow-span floor + per-cycle budget) whose cost the traceoverhead
	// experiment polices. -span-log additionally streams every completed
	// span to durable JSONL for cross-process trace assembly.
	var spanSink span.Sink
	var spanFile *span.JSONLSink
	if *spanLog != "" {
		f, err := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("span log: %w", err)
		}
		defer f.Close()
		spanFile = span.NewJSONLSink(f)
		spanSink = spanFile
	}
	spans := span.New(span.Config{Process: "lachesisd", Sink: spanSink})
	mw.SetSpans(spans)
	mw.SetSpanFloor(core.DefaultSpanFloor)
	mw.SetSpanBudget(core.DefaultSpanBudget)

	// The guard slots between the translator and the coalescer: every
	// translated batch is validated against the configured invariants
	// before any op reaches the write chain.
	var opGuard *guard.OpGuard
	applyOS := osIface
	if cfg.Guard != nil {
		opGuard = guard.NewOpGuard(osIface, cfg.Guard.invariants())
		opGuard.SetTelemetry(mw.Telemetry(), "configured")
		opGuard.SetAudit(trail)
		applyOS = opGuard
		fmt.Fprintf(stderr, "lachesisd: %s\n", opGuard)
	}

	var tr core.Translator
	switch cfg.Translator {
	case "", "nice":
		tr = core.NewNiceTranslator(applyOS)
	case "cpu.shares":
		tr = core.NewSharesTranslator(applyOS, 0, 0)
	case "nice+cpu.shares":
		tr = core.NewCombinedTranslator(applyOS, 0, 0)
	default:
		return fmt.Errorf("unknown translator %q", cfg.Translator)
	}
	// Out-of-range policy outputs are clamped silently by the normalizer;
	// the recorder surfaces each correction in telemetry and the audit
	// trail so a misbehaving policy is visible before it is harmful.
	if ct, ok := tr.(interface{ ObserveClamps(core.ClampObserver) }); ok {
		ct.ObserveClamps(core.ClampRecorder(mw.Telemetry(), trail, "configured"))
	}

	var wd *guard.Watchdog
	if cfg.Watchdog != nil {
		wd = guard.NewWatchdog(guard.WatchdogConfig{
			Fetch:     time.Duration(cfg.Watchdog.FetchMillis) * time.Millisecond,
			Schedule:  time.Duration(cfg.Watchdog.ScheduleMillis) * time.Millisecond,
			Apply:     time.Duration(cfg.Watchdog.ApplyMillis) * time.Millisecond,
			TripAfter: cfg.Watchdog.TripAfter,
		})
		wd.SetTelemetry(mw.Telemetry())
		wd.SetAudit(trail)
		mw.SetWatchdog(wd)
	}

	// With persistence, a policy promoted in a previous life outranks the
	// config file: rollbacks and promotions must survive a crash. The
	// first run seeds the config's priorities as the initial last-good.
	priorities := cfg.Priorities
	if store != nil {
		if raw, ok, err := store.LoadLastGoodPolicy(); err != nil {
			fmt.Fprintln(stderr, "lachesisd: last-good policy:", err)
		} else if ok {
			var pc policyConfig
			if err := json.Unmarshal(raw, &pc); err != nil || len(pc.Priorities) == 0 {
				fmt.Fprintln(stderr, "lachesisd: last-good policy unreadable, using config file")
			} else {
				priorities = pc.Priorities
				fmt.Fprintf(stderr, "lachesisd: loaded last-good policy (%d logical priorities)\n", len(priorities))
			}
		} else if raw, err := json.Marshal(policyConfig{Priorities: priorities}); err == nil {
			if err := store.SaveLastGoodPolicy(raw); err != nil {
				fmt.Fprintln(stderr, "lachesisd: seed last-good policy:", err)
			}
		}
	}

	// The canary controller is always on: it is the only path by which a
	// new policy (SIGHUP or POST /policy) reaches the binding, so every
	// hot reload is a staged rollout with an automatic verdict. With no
	// SLO sampler on a real host, the verdict rests on guard violations.
	canaryCfg := guard.Config{}
	if cfg.Canary != nil {
		canaryCfg = guard.Config{
			Fraction:            cfg.Canary.Fraction,
			Window:              cfg.Canary.WindowCycles,
			MaxLatencyFactor:    cfg.Canary.MaxLatencyFactor,
			MinThroughputFactor: cfg.Canary.MinThroughputFactor,
		}
	}
	canary := guard.NewCanary(canaryCfg)
	canary.SetTelemetry(mw.Telemetry())
	canary.SetAudit(trail)
	canary.SetSpans(spans)
	canary.SetProvider(mw.Provider())
	if opGuard != nil {
		canary.SetViolationSource(opGuard.Violations)
	}
	if store != nil {
		canary.SetPolicyStore(store)
	}
	slot := canary.Slot(buildPolicy(priorities))

	period := time.Duration(cfg.PeriodMillis) * time.Millisecond
	binding := core.Binding{
		Policy:     slot,
		Translator: tr,
		Drivers:    []core.Driver{drv},
		Coalescer:  co,
		Period:     period,
	}
	if opGuard != nil {
		binding.Guard = opGuard
	}
	if err := mw.Bind(binding); err != nil {
		return err
	}

	start := time.Now()

	// The flight recorder turns the span ring into incident artifacts: a
	// watchdog trip, a guard-blocked batch, or a canary rollback dumps
	// the recent spans as a trace bundle naming the offending trace.
	var flight *span.FlightRecorder
	if *flightDir != "" {
		flight = span.NewFlightRecorder(spans, *flightDir, 0)
		fmt.Fprintf(stderr, "lachesisd: flight recorder dumping to %s\n", *flightDir)
	}
	wireFlightHooks(flight, opGuard, wd, canary, func() time.Duration { return time.Since(start) })

	// propose stages a policy payload as a canary candidate. Callers hold
	// mu (the step loop, the SIGHUP branch and the HTTP handler all
	// serialize through it). A payload carrying a version is named by it
	// (the fleet coordinator's idempotent-retry handshake depends on the
	// candidate name matching the version it pushed); the origin — local
	// reload or fleet — is recorded in the audit trail. parent is the
	// proposer's trace context (a fleet push's Traceparent header); zero
	// opens a local trace for the rollout.
	var reloads int64
	propose := func(now time.Duration, raw []byte, parent span.Context) error {
		var pc policyConfig
		if err := json.Unmarshal(raw, &pc); err != nil {
			return fmt.Errorf("parse policy: %w", err)
		}
		if len(pc.Priorities) == 0 {
			return errors.New("policy has no priorities")
		}
		reloads++
		name := fmt.Sprintf("reload-%d", reloads)
		if pc.Version != "" {
			name = pc.Version
		}
		if err := canary.ProposeCtx(now, name, buildPolicy(pc.Priorities), raw, parent); err != nil {
			return err
		}
		origin := pc.Origin
		if origin == "" {
			origin = "local"
		}
		trail.Record(core.AuditEvent{At: now, Kind: core.AuditKindCanary,
			Outcome: fmt.Sprintf("candidate %q staged by origin %q", name, origin)})
		return nil
	}

	var rec *reconcile.Reconciler
	if *reconcileInterval > 0 && !willReconcile {
		fmt.Fprintln(stderr, "lachesisd: reconciliation disabled: the system binding cannot observe (dry-run)")
	}
	if willReconcile {
		rec = reconcile.New(reconcile.Config{
			// Repairs take the whole write gate: no apply worker holds a
			// driver lock while the reconciler rewrites kernel state. The
			// chain is the same one the step loop writes through, so
			// repairs re-record intent, re-audit, and mark the coalescer's
			// mirror dirty via the invalidation pass.
			OS:        gate.ExclusiveOS(osIface),
			Observer:  ctl,
			State:     state,
			Audit:     trail,
			Telemetry: mw.Telemetry(),
			// cgroup v2 stores weights; the shares round trip quantizes.
			SharesTolerance: map[bool]int{true: 27, false: 0}[osCfg.Version == oslinux.V2],
			Now:             func() time.Duration { return time.Since(start) },
			Spans:           spans,
		})
	}

	// mu serializes the step loop, the reconciler, and the introspection
	// handlers.
	var mu sync.Mutex
	introspectAddr := ""
	if *introspect != "" {
		srv, err := startIntrospection(*introspect, introspectionDeps{
			mu: &mu, mw: mw, trail: trail, rec: rec, state: state,
			canary: canary, wd: wd,
			spans: spans, flight: flight, pprofEnabled: *pprofEnabled, start: start,
			propose: func(raw []byte, parent span.Context) error {
				return propose(time.Since(start), raw, parent)
			},
			fence: egate.Admit,
		})
		if err != nil {
			return fmt.Errorf("introspection: %w", err)
		}
		defer srv.Close()
		introspectAddr = srv.addr
		fmt.Fprintf(stderr, "lachesisd: introspection listening on http://%s\n", srv.addr)
	}

	// With -fleet the daemon joins a coordinator: register, heartbeat,
	// re-register when the coordinator forgets us. Fleet membership is
	// strictly additive — a dead or partitioned coordinator never stops
	// the local decision cycle, which keeps enforcing the last-good
	// policy on its own.
	if *fleetAddr != "" {
		adv := *advertise
		if adv == "" {
			adv = introspectAddr
		}
		var backups []string
		for _, addr := range strings.Split(*coordinators, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				backups = append(backups, addr)
			}
		}
		beacon, err := fleet.StartBeacon(fleet.BeaconConfig{
			Coordinator: *fleetAddr, Coordinators: backups, ID: id, Addr: adv,
			// Register/heartbeat responses carry the coordinator's fencing
			// epoch, so the whole fleet ratchets within one heartbeat round
			// of a failover — not only the agents a new leader pushes to.
			ObserveEpoch: egate.Observe,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "lachesisd: fleet: "+format+"\n", args...)
			},
		})
		if err != nil {
			return fmt.Errorf("fleet beacon: %w", err)
		}
		defer beacon.Close()
		fmt.Fprintf(stderr, "lachesisd: fleet: joining %s as %q (policy API on %s, %d failover coordinators)\n",
			*fleetAddr, id, adv, len(backups))
	}

	// Warm restart: desired state loaded from a previous life is
	// reconciled onto the kernel BEFORE the first new decision, so a
	// crashed daemon resumes enforcing its last schedule instead of
	// leaving post-crash drift in place until the policy happens to
	// disagree.
	if rec != nil && state.Len() > 0 {
		mu.Lock()
		res := rec.Reconcile()
		mu.Unlock()
		fmt.Fprintf(stderr, "lachesisd: warm restart: checked %d, drifted %d, repaired %d, forgot %d\n",
			res.Checked, res.Drifted, res.Repaired, res.Forgotten)
	}

	// The periodic reconcile loop runs beside the step loop, jittered
	// ±10% so a fleet of daemons (or a periodic adversary) never
	// phase-locks with it.
	recStop := make(chan struct{})
	var recWG sync.WaitGroup
	if rec != nil {
		recWG.Add(1)
		go func() {
			defer recWG.Done()
			rng := rand.New(rand.NewSource(start.UnixNano()))
			for {
				d := *reconcileInterval
				d += time.Duration((rng.Float64()*2 - 1) * reconcileJitter * float64(d))
				timer := time.NewTimer(d)
				select {
				case <-recStop:
					timer.Stop()
					return
				case <-timer.C:
				}
				mu.Lock()
				rec.Reconcile()
				mu.Unlock()
			}
		}()
	}
	defer func() {
		close(recStop)
		recWG.Wait()
	}()

	fmt.Fprintf(stderr, "lachesisd: %d entities, translator %s, period %v, dry-run=%v\n",
		len(drv.entities), tr.Name(), period, *dryRun)
	// reloadFromFile re-reads the config file and stages its priorities as
	// a canary candidate (the SIGHUP path).
	reloadFromFile := func() {
		raw, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintln(stderr, "lachesisd: reload:", err)
			return
		}
		var fresh daemonConfig
		if err := json.Unmarshal(raw, &fresh); err != nil {
			fmt.Fprintln(stderr, "lachesisd: reload: parse config:", err)
			return
		}
		payload, err := json.Marshal(policyConfig{Priorities: fresh.Priorities})
		if err != nil {
			fmt.Fprintln(stderr, "lachesisd: reload:", err)
			return
		}
		mu.Lock()
		err = propose(time.Since(start), payload, span.Context{})
		mu.Unlock()
		if err != nil {
			fmt.Fprintln(stderr, "lachesisd: reload:", err)
			return
		}
		fmt.Fprintf(stderr, "lachesisd: reload: proposed %d priorities as canary candidate\n",
			len(fresh.Priorities))
	}

	interrupted := false
loop:
	// Errors do not stop the loop: the middleware's resilience layer
	// degrades the failing binding, and the daemon keeps retrying every
	// period until the binding recovers or the daemon is told to stop.
	for i := 0; *iterations == 0 || i < *iterations; i++ {
		mu.Lock()
		now := time.Since(start)
		stats, err := mw.Step(now)
		if wd != nil {
			wd.CycleDone(now)
		}
		canary.Tick(now)
		mu.Unlock()
		if err != nil {
			fmt.Fprintln(stderr, "lachesisd: step:", err)
		}
		if *iterations != 0 && i == *iterations-1 {
			break
		}
		timer := time.NewTimer(time.Until(start.Add(stats.Next)))
		waiting := true
		for waiting {
			select {
			case sig := <-sigs:
				if sig == syscall.SIGHUP {
					// Hot reload: stage the config file's current
					// priorities through the canary and keep running.
					reloadFromFile()
					continue
				}
				timer.Stop()
				interrupted = true
				break loop
			case <-timer.C:
				waiting = false
			}
		}
	}

	mu.Lock()
	health := mw.Health()
	mu.Unlock()
	printHealth(stderr, health)
	if sink != nil {
		if err := sink.Err(); err != nil {
			fmt.Fprintln(stderr, "lachesisd: audit log:", err)
		}
	}
	if spanFile != nil {
		if err := spanFile.Err(); err != nil {
			fmt.Fprintln(stderr, "lachesisd: span log:", err)
		}
	}
	if interrupted {
		fmt.Fprintln(stderr, "lachesisd: shutting down, restoring scheduling defaults")
		if r, ok := tr.(core.Resetter); ok {
			ents := make(map[string]core.Entity, len(drv.entities))
			for _, e := range drv.entities {
				ents[e.Name] = e
			}
			if err := r.Reset(ents); err != nil {
				fmt.Fprintln(stderr, "lachesisd: reset:", err)
			}
		}
	}
	if err := state.Err(); err != nil {
		fmt.Fprintln(stderr, "lachesisd: state persistence:", err)
	}
	if store != nil {
		// Fold the append log into a clean snapshot so the next start
		// replays nothing (a crash before this point still recovers from
		// the log).
		if err := state.Checkpoint(); err != nil {
			fmt.Fprintln(stderr, "lachesisd: state checkpoint:", err)
		}
	}
	return nil
}

// reconcileJitter is the ± fraction applied to each reconcile sleep.
const reconcileJitter = 0.1

// wireFlightHooks points every local anomaly site at the flight
// recorder: a watchdog trip, a guard-blocked batch, or a canary rollback
// dumps the span ring as an incident bundle. The watchdog fires after
// CycleDone, so its dump holds the offending cycle's completed spans;
// the guard hook fires mid-cycle and names the in-flight trace via the
// recorder's last root. A nil flight (no -flight-dir) leaves every hook
// unset; nil subsystems are skipped.
func wireFlightHooks(flight *span.FlightRecorder, og *guard.OpGuard, wd *guard.Watchdog, canary *guard.Canary, now func() time.Duration) {
	if flight == nil {
		return
	}
	if og != nil {
		og.SetBlockHook(func(binding string, violations []guard.Violation) {
			detail := binding
			if len(violations) > 0 {
				v := violations[0]
				detail = fmt.Sprintf("%s: %s: %s", binding, v.Invariant, v.Detail)
			}
			_, _ = flight.Trip(span.Trigger{At: now(), Kind: span.TriggerGuardBlock, Detail: detail})
		})
	}
	if wd != nil {
		wd.SetTripHook(func(at time.Duration, detail string) {
			_, _ = flight.Trip(span.Trigger{At: at, Kind: span.TriggerWatchdog, Detail: detail})
		})
	}
	if canary != nil {
		canary.SetRollbackHook(func(at time.Duration, trace, reason string) {
			_, _ = flight.Trip(span.Trigger{At: at, Kind: span.TriggerCanaryRollback, Detail: reason, Trace: trace})
		})
	}
}

// printHealth writes the middleware health snapshot, one line per binding
// and driver.
func printHealth(w io.Writer, h core.Health) {
	for _, b := range h.Bindings {
		fmt.Fprintf(w, "lachesisd: health: binding %s/%s %s (failures %d, last success %v)\n",
			b.Policy, b.Translator, b.State, b.ConsecutiveFailures, b.LastSuccess)
	}
	for _, d := range h.Drivers {
		fmt.Fprintf(w, "lachesisd: health: driver %s (stale %v, last success %v)\n",
			d.Driver, d.ServingStale, d.LastSuccess)
	}
}

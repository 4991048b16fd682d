// Command lachesis-fleet is the fleet coordinator: it keeps a leased
// registry of lachesisd agents (POST /register, POST /heartbeat), fans
// versioned policies out to their POST /policy APIs, and runs canary
// rollouts across node cohorts with SLO-delta and guard-violation
// auto-rollback (POST /fleet/policy). With -state, registry and rollout
// state survive coordinator restarts: a crash mid-rollout resumes the
// rollout, it never clobbers the agents back to square one — agents
// keep enforcing their last-good policies autonomously whether or not a
// coordinator is alive.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/fleet"
	"lachesis/internal/httpx"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sigs); err != nil {
		fmt.Fprintf(os.Stderr, "lachesis-fleet: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored for tests.
func run(args []string, stdout, stderr io.Writer, sigs chan os.Signal) error {
	fs := flag.NewFlagSet("lachesis-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:9600", "coordinator HTTP address")
	id := fs.String("id", "", "coordinator HA identity (lease holder name; default: the listen address)")
	peers := fs.String("peers", "", "comma-separated peer coordinator addresses for HA (lease observation + checkpoint replication)")
	leaseTTL := fs.Duration("lease-ttl", 0, "leader-lease TTL standbys wait out before promoting (default 3x tick)")
	standbyMode := fs.Bool("standby", false, "start as a standby: apply replicated checkpoints and promote only when the leader's lease expires")
	statePath := fs.String("state", "", "state directory for crash-safe registry/rollout persistence (empty: in-memory)")
	tick := fs.Duration("tick", time.Second, "coordinator cycle period (sweep + rollout advance)")
	heartbeat := fs.Duration("heartbeat", time.Second, "heartbeat interval expected from agents")
	suspectAfter := fs.Int("suspect-after", 3, "missed beats before an agent lease turns suspect")
	evictAfter := fs.Int("evict-after", 10, "missed beats before an agent lease is evicted")
	canaryFraction := fs.Float64("canary-fraction", 0.25, "fraction of agents in the canary cohort")
	waves := fs.Int("waves", 2, "promotion waves after the canary cohort")
	window := fs.Int("window", 5, "observation window per cohort, in ticks")
	pushTicks := fs.Int("push-ticks", 5, "ticks before unreachable agents are degraded out of a wave")
	agentTimeout := fs.Duration("agent-timeout", 2*time.Second, "per-request timeout talking to agents")
	auditPath := fs.String("audit", "", "append-only JSONL audit log (empty: ring buffer only)")
	spanLog := fs.String("span-log", "",
		"append completed trace spans as JSONL to this file (the ring behind /debug/trace is always on)")
	flightDir := fs.String("flight-dir", "",
		"write flight-recorder trace bundles into this directory when an agent's push breaker opens")
	pprofEnabled := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	iterations := fs.Int("iterations", 0, "exit after this many ticks (0: run until signal)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fail fast on nonsense configuration instead of limping along with
	// silently substituted defaults.
	switch {
	case *tick <= 0:
		return fmt.Errorf("-tick must be positive, got %v", *tick)
	case *heartbeat <= 0:
		return fmt.Errorf("-heartbeat must be positive, got %v", *heartbeat)
	case *canaryFraction <= 0 || *canaryFraction > 1:
		return fmt.Errorf("-canary-fraction must be in (0,1], got %v", *canaryFraction)
	case *suspectAfter <= 0:
		return fmt.Errorf("-suspect-after must be positive, got %d", *suspectAfter)
	case *evictAfter <= *suspectAfter:
		return fmt.Errorf("-evict-after (%d) must exceed -suspect-after (%d)", *evictAfter, *suspectAfter)
	case *waves <= 0 || *window <= 0 || *pushTicks <= 0:
		return errors.New("-waves, -window and -push-ticks must be positive")
	case *leaseTTL < 0:
		return fmt.Errorf("-lease-ttl must not be negative, got %v", *leaseTTL)
	case *standbyMode && *peers == "":
		return errors.New("-standby needs -peers (a standby with nobody to observe would never promote)")
	}
	if *leaseTTL == 0 {
		*leaseTTL = 3 * *tick
	}
	if *id == "" {
		*id = *listen
	}
	peerClients := map[string]fleet.PeerClient{}
	for _, addr := range strings.Split(*peers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		peerClients[addr] = fleet.NewHTTPPeer(addr, addr, *agentTimeout)
	}

	// Audit trail, optionally mirrored to a JSONL file.
	var trailSink core.AuditSink
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		defer f.Close()
		trailSink = core.NewJSONLSink(f)
	}

	var spanSink *span.JSONLSink
	if *spanLog != "" {
		f, err := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("span log: %w", err)
		}
		defer f.Close()
		spanSink = span.NewJSONLSink(f)
		defer func() {
			if err := spanSink.Err(); err != nil {
				fmt.Fprintln(stderr, "lachesis-fleet: span log:", err)
			}
		}()
	}

	opts := fleetOptions{
		registry: fleet.RegistryConfig{
			HeartbeatInterval: *heartbeat,
			SuspectAfter:      *suspectAfter,
			EvictAfter:        *evictAfter,
		},
		rollout: fleet.RolloutConfig{
			CanaryFraction: *canaryFraction,
			Waves:          *waves,
			WindowTicks:    *window,
			PushTicks:      *pushTicks,
		},
		conns:        fleet.HTTPConnFactory(*agentTimeout),
		sink:         trailSink,
		flightDir:    *flightDir,
		pprofEnabled: *pprofEnabled,
		id:           *id,
		peers:        peerClients,
		leaseTTL:     *leaseTTL,
		standby:      *standbyMode,
	}
	if spanSink != nil {
		opts.spanSink = spanSink
	}
	// Warm restart: registry, rollout state (with the fleet last-good)
	// and the lease all come back from the state directory.
	var state reconcile.FS
	if *statePath != "" {
		sfs, err := reconcile.NewOSFS(*statePath)
		if err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
		state = sfs
	}
	warnf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "lachesis-fleet: state: "+format+"\n", args...)
	}
	d, err := newFleetDaemon(opts, state, warnf)
	if err != nil {
		return err
	}
	if state != nil {
		fmt.Fprintf(stderr, "lachesis-fleet: state loaded from %s: %d agents, rollout %s\n",
			*statePath, len(d.rep.Registry().Agents()), d.rep.Coordinator().Status().Phase)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := httpx.NewServer(d.handler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	role := "leading"
	if *standbyMode {
		role = "standby"
	}
	fmt.Fprintf(stderr, "lachesis-fleet: %s listening on %s (%s, tick %v, heartbeat %v, lease ttl %v, %d peers)\n",
		*id, ln.Addr(), role, *tick, *heartbeat, *leaseTTL, len(peerClients))

	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	ticks := 0
	for {
		select {
		case sig := <-sigs:
			// Graceful shutdown: release the lease (standbys promote without
			// waiting out the TTL) and take a final state checkpoint.
			fmt.Fprintf(stderr, "lachesis-fleet: %v, shutting down\n", sig)
			d.shutdown()
			fmt.Fprintln(stderr, "lachesis-fleet: final state checkpoint taken")
			return nil
		case <-ticker.C:
			d.tick()
			ticks++
			if *iterations > 0 && ticks >= *iterations {
				fmt.Fprintf(stderr, "lachesis-fleet: %d ticks done, exiting\n", ticks)
				return nil
			}
		}
	}
}

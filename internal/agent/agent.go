// Package agent is the policy-proposal path of one lachesisd agent: the
// semantics of POST /policy, shared by the daemon's HTTP handler, its
// SIGHUP reload, and the simulated agents the harness experiments and
// the dst simulation drive (Sim). A proposal passes the fencing epoch
// gate, is parsed as a Policy, is named, and is staged on the agent's
// canary controller; the staging is audited with its origin.
package agent

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/span"
)

// Policy is the hot-reloadable policy payload: the "priorities" section
// of lachesisd's config file, as staged by SIGHUP and POST /policy and
// persisted as the last-good policy. Origin and Version are optional
// attribution set by remote proposers (the fleet coordinator sends
// origin "fleet" and its rollout version): the version names the canary
// candidate — so the coordinator can recognize its own in-flight
// candidate when a retry hits 409 — and both are audited.
type Policy struct {
	Priorities map[string]float64 `json:"priorities"`
	Origin     string             `json:"origin,omitempty"`
	Version    string             `json:"version,omitempty"`
}

// BadPolicyError reports a payload that is not a usable Policy:
// unparseable, or without priorities. It is the proposer's fault, so
// retrying the same bytes cannot succeed (HTTP 400).
type BadPolicyError struct {
	Err error
}

// Error implements error.
func (e *BadPolicyError) Error() string { return "bad policy: " + e.Err.Error() }

// IsBadPolicy reports whether err is (or wraps) a BadPolicyError.
func IsBadPolicy(err error) bool {
	var be *BadPolicyError
	return errors.As(err, &be)
}

// Config assembles an agent's proposal path.
type Config struct {
	// ID names the agent in conflict errors.
	ID string
	// Canary stages every accepted candidate.
	Canary *guard.Canary
	// Gate admits or fences a push's epoch before anything is parsed;
	// nil builds an unfenced agent that admits every epoch.
	Gate *fleet.EpochGate
	// Audit records each staging with its origin (nil: not audited).
	Audit *core.AuditTrail
	// Build turns a candidate's name and priorities into its policy.
	Build func(name string, pri core.LogicalSchedule) core.Policy
}

// Agent is one agent's proposal path. It is not safe for concurrent
// use: callers serialize it with their decision cycle, exactly as
// lachesisd's step loop, SIGHUP branch and HTTP handlers share one
// mutex.
type Agent struct {
	cfg     Config
	reloads int64
}

// New builds an agent's proposal path.
func New(cfg Config) *Agent { return &Agent{cfg: cfg} }

// Propose stages a policy payload as a canary candidate and returns the
// candidate's name. epoch is the proposer's fencing epoch (0: a local,
// unfenced proposal); parent is its trace context (zero opens a local
// trace). A payload carrying a version is named by it, otherwise
// "reload-N". Errors are typed: *fleet.FencedError for a stale epoch,
// *BadPolicyError for an unusable payload, and *fleet.ConflictError
// when the canary refuses (a rollout is already in flight).
func (a *Agent) Propose(now time.Duration, raw []byte, parent span.Context, epoch int64) (string, error) {
	if a.cfg.Gate != nil {
		if err := a.cfg.Gate.Admit(epoch); err != nil {
			return "", err
		}
	}
	var p Policy
	if err := json.Unmarshal(raw, &p); err != nil {
		return "", &BadPolicyError{Err: err}
	}
	if len(p.Priorities) == 0 {
		return "", &BadPolicyError{Err: errors.New("policy has no priorities")}
	}
	a.reloads++
	name := p.Version
	if name == "" {
		name = fmt.Sprintf("reload-%d", a.reloads)
	}
	cand := a.cfg.Build(name, core.LogicalSchedule(p.Priorities))
	if err := a.cfg.Canary.ProposeCtx(now, name, cand, raw, parent); err != nil {
		return "", &fleet.ConflictError{Agent: a.cfg.ID, Body: err.Error()}
	}
	if a.cfg.Audit != nil {
		origin := p.Origin
		if origin == "" {
			origin = "local"
		}
		a.cfg.Audit.Record(core.AuditEvent{At: now, Kind: core.AuditKindCanary,
			Outcome: fmt.Sprintf("candidate %q staged by origin %q", name, origin)})
	}
	return name, nil
}

package agent

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/fleet"
	"lachesis/internal/span"
)

func newTestSim(t *testing.T, unfenced bool) *Sim {
	t.Helper()
	n, err := NewSim(SimConfig{ID: "n1", Bindings: 2, Window: 1, Unfenced: unfenced})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestProposeNamesStagesAndAudits(t *testing.T) {
	n := newTestSim(t, false)
	trail := core.NewAuditTrail(8, nil)
	a := New(Config{ID: "n1", Canary: n.Canary(), Audit: trail, Build: simPolicy})

	name, err := a.Propose(time.Second, []byte(`{"priorities":{"heavy":3}}`), span.Context{}, 0)
	if err != nil || name != "reload-1" {
		t.Fatalf("unversioned proposal = %q, %v; want reload-1", name, err)
	}
	ev := trail.Last(1)
	if len(ev) != 1 || !strings.Contains(ev[0].Outcome, `"reload-1" staged by origin "local"`) {
		t.Fatalf("audit = %+v, want the staging with its local origin", ev)
	}
	// A second proposal while the first is in flight is a typed conflict.
	_, err = a.Propose(time.Second, []byte(`{"priorities":{"heavy":4},"version":"v9","origin":"fleet"}`), span.Context{}, 0)
	var ce *fleet.ConflictError
	if !errors.As(err, &ce) || ce.Agent != "n1" {
		t.Fatalf("proposal during a rollout = %v, want *fleet.ConflictError", err)
	}
	if st := n.Canary().Status(); st.Candidate != "reload-1" {
		t.Fatalf("candidate = %q, want reload-1 still in flight", st.Candidate)
	}
}

func TestProposeRejectsBadPolicy(t *testing.T) {
	n := newTestSim(t, false)
	for _, body := range []string{`{"priorities":`, `{"version":"v2"}`, `{"priorities":{}}`} {
		_, err := n.Propose([]byte(body))
		if !IsBadPolicy(err) || fleet.IsConflict(err) {
			t.Errorf("Propose(%q) = %v, want a bad-policy error", body, err)
		}
	}
	if _, total := n.Staged(nil); total != 0 {
		t.Fatalf("%d bad policies staged", total)
	}
}

func TestSimFencesStaleEpochUnlessUnfenced(t *testing.T) {
	payload := []byte(`{"priorities":{"heavy":12,"light":2},"version":"v2"}`)
	var events []string
	n, err := NewSim(SimConfig{ID: "n1", Bindings: 2, Window: 1,
		Events: func(_ time.Duration, kind, detail string) { events = append(events, kind+" "+detail) }})
	if err != nil {
		t.Fatal(err)
	}
	n.Gate().Observe(3)
	if _, err := n.ProposeFenced(payload, "", 2); !fleet.IsFenced(err) {
		t.Fatalf("stale epoch = %v, want fenced", err)
	}
	if _, err := n.ProposeFenced(payload, "", 3); err != nil {
		t.Fatal(err)
	}
	want := []string{"gate-reject push epoch 2 < observed 3", "staged v2"}
	if strings.Join(events, "|") != strings.Join(want, "|") {
		t.Fatalf("events = %q, want %q", events, want)
	}

	open := newTestSim(t, true)
	open.Gate().Observe(3)
	if _, err := open.ProposeFenced(payload, "", 2); err != nil {
		t.Fatalf("unfenced agent rejected a stale epoch: %v", err)
	}
	if of, _ := open.Staged(payload); of != 1 || open.Gate().Rejected() != 0 {
		t.Fatalf("unfenced agent staged %d, gate rejected %d; want 1 and 0", of, open.Gate().Rejected())
	}
}

func TestSimPromotesCandidateToLastGood(t *testing.T) {
	n := newTestSim(t, false)
	payload := []byte(`{"priorities":{"heavy":12,"light":2},"version":"v2"}`)
	n.Tick(time.Second)
	if _, err := n.Propose(payload); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		n.Tick(time.Duration(i) * time.Second)
	}
	if got := string(n.LastGood()); got != string(payload) {
		t.Fatalf("last-good = %s, want the promoted candidate", got)
	}
	if n.Inverted() != 0 || n.StepErrors() != 0 {
		t.Fatalf("inverted %d, step errors %d; want 0, 0", n.Inverted(), n.StepErrors())
	}
	if replayed, actual := core.ReplayNice(n.AuditEvents()), n.Nices(); len(replayed) != len(actual) || len(actual) != 4 {
		t.Fatalf("audit replay covers %d threads, kernel %d; want 4 each", len(replayed), len(actual))
	}
}

package harness

import (
	"os"
	"path/filepath"
	"testing"

	"lachesis/internal/guard"
	"lachesis/internal/span"
)

// TestFleetTraceCrossesProcesses drives a good rollout to promotion with
// span recorders on both sides of the wire — the coordinator writing one
// JSONL sink, every agent's canary writing another — then rebuilds the
// trace tree from the two files alone and asserts one trace ID covers
// rollout -> push -> canary.stage -> canary.verdict end to end.
func TestFleetTraceCrossesProcesses(t *testing.T) {
	f, err := newSimFleet(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.start(nil); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	coFile, err := os.Create(filepath.Join(dir, "fleet.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	coRec := span.New(span.Config{Process: "lachesis-fleet", Seed: 3, Sink: span.NewJSONLSink(coFile)})
	co := f.rep.Coordinator()
	co.SetSpans(coRec)
	agFile, err := os.Create(filepath.Join(dir, "agents.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	agSink := span.NewJSONLSink(agFile)
	for i, id := range f.order {
		rec := span.New(span.Config{Process: "lachesisd/" + id, Seed: uint64(100 + i), Sink: agSink})
		f.nodes[id].Canary().SetSpans(rec)
	}

	if err := f.rep.Propose(f.now, "v-good", fleetGoodPayload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fleetMaxTicks && co.Status().Active; i++ {
		f.tick(true)
	}
	if st := co.Status(); st.LastDecision != guard.DecisionPromoted {
		t.Fatalf("rollout did not promote: %+v", st)
	}

	// Reconstruct the cross-process tree from the two sinks alone — the
	// in-memory recorders could help, but a live deployment only has the
	// files.
	var all []span.Span
	for _, name := range []string{"fleet.jsonl", "agents.jsonl"} {
		fh, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		spans, _, err := span.ReadSpans(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all = append(all, spans...)
	}
	roots := span.BuildTrees(all)
	var rollout *span.Node
	for _, r := range roots {
		if r.Name == "rollout" {
			rollout = r
			break
		}
	}
	if rollout == nil {
		t.Fatalf("no rollout root among %d trees", len(roots))
	}
	if rollout.Process != "lachesis-fleet" {
		t.Errorf("rollout root process = %q", rollout.Process)
	}

	// Walk rollout -> push -> canary.stage -> canary.verdict; the stage
	// and verdict spans must come from agent processes, on the same trace.
	verdicts := 0
	for _, push := range rollout.Children {
		if push.Name != "push" {
			t.Fatalf("unexpected rollout child %q", push.Name)
		}
		for _, stage := range push.Children {
			if stage.Name != "canary.stage" {
				t.Fatalf("unexpected push child %q", stage.Name)
			}
			if stage.Process == "lachesis-fleet" {
				t.Errorf("stage span recorded on the coordinator: %+v", stage.Span)
			}
			if stage.Trace != rollout.Trace {
				t.Errorf("stage trace %s != rollout trace %s", stage.Trace, rollout.Trace)
			}
			for _, v := range stage.Children {
				if v.Name == "canary.verdict" && v.Attrs.Get("decision") == guard.DecisionPromoted {
					verdicts++
				}
			}
		}
	}
	if verdicts != len(f.order) {
		t.Errorf("promoted canary.verdict spans under the rollout trace = %d, want %d", verdicts, len(f.order))
	}
	if err := agSink.Err(); err != nil {
		t.Fatalf("agent sink error: %v", err)
	}
}

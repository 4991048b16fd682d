package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// failingLogicalPolicy always errors.
type failingLogicalPolicy struct{}

func (failingLogicalPolicy) Name() string      { return "boom" }
func (failingLogicalPolicy) Metrics() []string { return []string{MetricQueueSize} }
func (failingLogicalPolicy) ScheduleLogical(*View, LogicalSchedule) (Scale, error) {
	return 0, errors.New("boom")
}

func TestTransformedPropagatesErrors(t *testing.T) {
	p := Transformed(failingLogicalPolicy{}, nil)
	if _, err := p.Schedule(viewWith(nil, nil)); err == nil {
		t.Error("logical policy error must propagate")
	}
	if got := p.Metrics(); len(got) != 1 || got[0] != MetricQueueSize {
		t.Errorf("metrics passthrough = %v", got)
	}
}

func TestGroupPerQueryPropagatesErrors(t *testing.T) {
	p := GroupPerQuery(erroringPolicy{})
	if _, err := p.Schedule(viewWith(nil, nil)); err == nil {
		t.Error("inner policy error must propagate")
	}
}

func TestMaxPriorityRuleSkipsUnknownLogical(t *testing.T) {
	ents := map[string]Entity{
		"known":   {Name: "known", Logical: []string{"a"}},
		"unknown": {Name: "unknown", Logical: []string{"zzz"}},
		"empty":   {Name: "empty"},
	}
	out := map[string]float64{}
	MaxPriorityRule(LogicalSchedule{"a": 5}, ents, out)
	if out["known"] != 5 {
		t.Errorf("known = %v", out["known"])
	}
	if _, ok := out["unknown"]; ok {
		t.Error("entity with no scheduled logical ops must be omitted")
	}
	if _, ok := out["empty"]; ok {
		t.Error("entity without logical ops must be omitted")
	}
}

func TestStaticLogicalPolicyDefaults(t *testing.T) {
	lp := &StaticLogicalPolicy{Priorities: LogicalSchedule{"a": 9}, Default: 2}
	if lp.Name() != "static" {
		t.Errorf("default name = %q", lp.Name())
	}
	ents := map[string]Entity{
		"x": {Name: "x", Logical: []string{"a", "b"}},
	}
	sched := LogicalSchedule{}
	scale, err := lp.ScheduleLogical(viewWith(ents, nil), sched)
	if err != nil {
		t.Fatal(err)
	}
	if scale != ScaleLinear {
		t.Errorf("scale = %v", scale)
	}
	if sched["a"] != 9 || sched["b"] != 2 {
		t.Errorf("schedule = %v", sched)
	}
}

// randomLogicalView builds a view of up to 12 entities, each fusing one
// to three of six logical operators, with queue sizes for QS.
func randomLogicalView(rng *rand.Rand) *View {
	ents := map[string]Entity{}
	qs := EntityValues{}
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		name := fmt.Sprintf("op%d", i)
		var logical []string
		for j, m := 0, 1+rng.Intn(3); j < m; j++ {
			logical = append(logical, fmt.Sprintf("L%d", rng.Intn(6)))
		}
		ents[name] = Entity{Name: name, Query: fmt.Sprintf("q%d", rng.Intn(3)), Thread: i + 1, Logical: logical}
		qs[name] = float64(rng.Intn(100))
	}
	return viewWith(ents, map[string]EntityValues{MetricQueueSize: qs})
}

// TestTransformedScheduleIntoMatchesSchedule: the in-place path writes
// exactly the allocating Schedule's output, cycle after cycle over one
// reused buffer, and propagates the logical policy's errors.
func TestTransformedScheduleIntoMatchesSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Transformed(&StaticLogicalPolicy{
		Priorities: LogicalSchedule{"L0": 5, "L1": -2, "L3": 9, "L5": 1}, Default: 3,
	}, nil)
	ip := InPlaceOf(p)
	if ip == nil {
		t.Fatal("a transformed policy must run in place")
	}
	out := Schedule{Single: map[string]float64{}}
	for i := 0; i < 200; i++ {
		v := randomLogicalView(rng)
		want, err := p.Schedule(v)
		if err != nil {
			t.Fatal(err)
		}
		clear(out.Single)
		out.Scale = 0
		if err := ip.ScheduleInto(v, &out); err != nil {
			t.Fatal(err)
		}
		if out.Scale != want.Scale || !maps.Equal(out.Single, want.Single) || len(out.Groups) != 0 {
			t.Fatalf("view %d: ScheduleInto = %+v, Schedule = %+v", i, out, want)
		}
	}
	failing := InPlaceOf(Transformed(failingLogicalPolicy{}, nil))
	if err := failing.ScheduleInto(viewWith(nil, nil), &out); err == nil {
		t.Error("logical policy error must propagate through ScheduleInto")
	}
}

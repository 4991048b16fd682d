package core

import (
	"testing"
	"time"
)

func viewWith(entities map[string]Entity, values map[string]EntityValues) *View {
	return NewView(time.Second, entities, values)
}

func linearEntities(names ...string) map[string]Entity {
	out := make(map[string]Entity, len(names))
	for i, n := range names {
		e := Entity{Name: n, Query: "q", Logical: []string{n}, Thread: i + 1}
		if i+1 < len(names) {
			e.Downstream = []string{names[i+1]}
		}
		out[n] = e
	}
	return out
}

func TestQSPolicyPrioritiesAreQueueSizes(t *testing.T) {
	ents := linearEntities("a", "b", "c")
	view := viewWith(ents, map[string]EntityValues{
		MetricQueueSize: {"a": 3, "b": 100, "c": 0},
	})
	sched, err := QSPolicy{}.Schedule(view)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Scale != ScaleLinear {
		t.Errorf("QS scale = %v, want linear", sched.Scale)
	}
	if sched.Single["b"] != 100 || sched.Single["c"] != 0 {
		t.Errorf("QS priorities = %v", sched.Single)
	}
}

func TestFCFSPolicyPrioritiesAreHeadWaits(t *testing.T) {
	ents := linearEntities("a", "b")
	view := viewWith(ents, map[string]EntityValues{
		MetricHeadWaitMs: {"a": 250, "b": 10},
	})
	sched, err := FCFSPolicy{}.Schedule(view)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Single["a"] <= sched.Single["b"] {
		t.Errorf("older head tuple should win: %v", sched.Single)
	}
}

func TestHRPolicyPrefersCheapProductivePaths(t *testing.T) {
	// Diamond: src feeds fast and slow branches ending at separate sinks.
	//   src -> fast -> sinkF     (cheap, selectivity 1)
	//   src -> slow -> sinkS     (expensive, selectivity 1)
	ents := map[string]Entity{
		"src":   {Name: "src", Downstream: []string{"fast", "slow"}},
		"fast":  {Name: "fast", Downstream: []string{"sinkF"}},
		"slow":  {Name: "slow", Downstream: []string{"sinkS"}},
		"sinkF": {Name: "sinkF"},
		"sinkS": {Name: "sinkS"},
	}
	view := viewWith(ents, map[string]EntityValues{
		MetricCostMs:      {"src": 0.1, "fast": 0.1, "slow": 10, "sinkF": 0.1, "sinkS": 0.1},
		MetricSelectivity: {"src": 1, "fast": 1, "slow": 1, "sinkF": 1, "sinkS": 1},
	})
	sched, err := HRPolicy{}.Schedule(view)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Scale != ScaleLog {
		t.Errorf("HR scale = %v, want log", sched.Scale)
	}
	if sched.Single["fast"] <= sched.Single["slow"] {
		t.Errorf("fast branch should outrank slow: fast=%v slow=%v",
			sched.Single["fast"], sched.Single["slow"])
	}
	// src takes the best (fast) path, so it outranks the slow branch too.
	if sched.Single["src"] <= sched.Single["slow"] {
		t.Errorf("src should outrank slow branch: src=%v slow=%v",
			sched.Single["src"], sched.Single["slow"])
	}
}

func TestHRPolicyAccountsForSelectivity(t *testing.T) {
	// Equal costs; the productive branch (higher selectivity) wins.
	ents := map[string]Entity{
		"a":  {Name: "a", Downstream: []string{"sa"}},
		"b":  {Name: "b", Downstream: []string{"sb"}},
		"sa": {Name: "sa"},
		"sb": {Name: "sb"},
	}
	view := viewWith(ents, map[string]EntityValues{
		MetricCostMs:      {"a": 1, "b": 1, "sa": 1, "sb": 1},
		MetricSelectivity: {"a": 5, "b": 0.2, "sa": 1, "sb": 1},
	})
	sched, err := HRPolicy{}.Schedule(view)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Single["a"] <= sched.Single["b"] {
		t.Errorf("productive operator should win: a=%v b=%v", sched.Single["a"], sched.Single["b"])
	}
}

func TestRandomPolicyIsSeededAndInRange(t *testing.T) {
	ents := linearEntities("a", "b", "c", "d")
	view := viewWith(ents, nil)
	p1 := NewRandomPolicy(7)
	p2 := NewRandomPolicy(7)
	s1, _ := p1.Schedule(view)
	s2, _ := p2.Schedule(view)
	for name, v := range s1.Single {
		if v < 0 || v >= 1 {
			t.Errorf("random priority out of [0,1): %v", v)
		}
		if s2.Single[name] != v {
			t.Errorf("same seed should reproduce priorities")
		}
	}
	distinct := make(map[float64]bool)
	for _, v := range s1.Single {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Error("random priorities should differ across entities")
	}
}

func TestMaxPriorityRule(t *testing.T) {
	// Physical op "cde" fuses logical C, D, E (paper Fig. 2); replica ops
	// f0/f1 both execute logical F.
	ents := map[string]Entity{
		"cde": {Name: "cde", Logical: []string{"C", "D", "E"}},
		"f0":  {Name: "f0", Logical: []string{"F"}},
		"f1":  {Name: "f1", Logical: []string{"F"}},
	}
	logical := LogicalSchedule{"C": 1, "D": 9, "E": 2, "F": 5}
	got := map[string]float64{}
	MaxPriorityRule(logical, ents, got)
	if got["cde"] != 9 {
		t.Errorf("fused op priority = %v, want max(1,9,2)=9", got["cde"])
	}
	if got["f0"] != 5 || got["f1"] != 5 {
		t.Errorf("replicas should inherit logical priority: %v", got)
	}
}

func TestTransformedStaticPolicy(t *testing.T) {
	ents := map[string]Entity{
		"b1op": {Name: "b1op", Logical: []string{"count", "var-toll"}},
		"b2op": {Name: "b2op", Logical: []string{"fixed-toll"}},
	}
	lp := &StaticLogicalPolicy{
		PolicyName: "branch1-first",
		Priorities: LogicalSchedule{"count": 10, "var-toll": 10},
		Default:    1,
	}
	p := Transformed(lp, nil)
	if p.Name() != "branch1-first+transform" {
		t.Errorf("name = %q", p.Name())
	}
	sched, err := p.Schedule(viewWith(ents, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Single["b1op"] <= sched.Single["b2op"] {
		t.Errorf("branch 1 should outrank branch 2: %v", sched.Single)
	}
}

func TestGroupPerQueryAddsGroups(t *testing.T) {
	ents := map[string]Entity{
		"q1.a": {Name: "q1.a", Query: "q1"},
		"q1.b": {Name: "q1.b", Query: "q1"},
		"q2.a": {Name: "q2.a", Query: "q2"},
	}
	view := viewWith(ents, map[string]EntityValues{
		MetricQueueSize: {"q1.a": 1, "q1.b": 2, "q2.a": 3},
	})
	p := GroupPerQuery(NewQSPolicy())
	sched, err := p.Schedule(view)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Groups) != 2 {
		t.Fatalf("want 2 query groups, got %d", len(sched.Groups))
	}
	g1 := sched.Groups["query-q1"]
	if len(g1.Ops) != 2 {
		t.Errorf("query-q1 group ops = %v", g1.Ops)
	}
	if g1.Priority != sched.Groups["query-q2"].Priority {
		t.Error("query groups should have equal priority")
	}
	if len(sched.Single) != 3 {
		t.Errorf("inner single schedule should survive, got %v", sched.Single)
	}
}

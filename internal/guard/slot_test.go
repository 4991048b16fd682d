package guard

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lachesis/internal/core"
)

// scheduleOnly hides a policy's in-place path, so a slot running it
// copies its Schedule.
type scheduleOnly struct{ core.Policy }

// randomSlotView builds a view of up to 10 entities over three queries
// and four logical operators, with queue sizes for QS.
func randomSlotView(rng *rand.Rand) *core.View {
	ents := map[string]core.Entity{}
	qs := core.EntityValues{}
	for i, n := 0, 1+rng.Intn(10); i < n; i++ {
		name := fmt.Sprintf("op%d", i)
		ents[name] = core.Entity{Name: name, Query: fmt.Sprintf("q%d", rng.Intn(3)), Thread: i + 1,
			Logical: []string{fmt.Sprintf("L%d", rng.Intn(4)), fmt.Sprintf("L%d", rng.Intn(4))}}
		qs[name] = float64(rng.Intn(50))
	}
	return core.NewView(0, ents, map[string]core.EntityValues{core.MetricQueueSize: qs})
}

// resetSchedule clears a reused schedule the way the middleware does
// between cycles: maps emptied, group op slices truncated in place.
func resetSchedule(s *core.Schedule) {
	clear(s.Single)
	for gid, g := range s.Groups {
		g.Ops, g.Priority = g.Ops[:0], 0
		s.Groups[gid] = g
	}
	s.Scale = 0
}

// sameSchedule compares schedules; group members compare as sets.
func sameSchedule(a, b core.Schedule) bool {
	if a.Scale != b.Scale || !maps.Equal(a.Single, b.Single) || len(a.Groups) != len(b.Groups) {
		return false
	}
	for gid, ga := range a.Groups {
		gb, ok := b.Groups[gid]
		if !ok || ga.Priority != gb.Priority || !slices.Equal(sorted(ga.Ops), sorted(gb.Ops)) {
			return false
		}
	}
	return true
}

func sorted(ops []string) []string {
	out := slices.Clone(ops)
	slices.Sort(out)
	return out
}

// TestSlotScheduleIntoMatchesSchedule: a slot's in-place path writes
// what its Schedule returns, over one reused buffer, while the slot runs
// its stable policy, a candidate, and each policy after a promotion —
// alternating grouping and non-grouping policies, in place and copied.
func TestSlotScheduleIntoMatchesSchedule(t *testing.T) {
	static := func() core.Policy {
		return core.Transformed(&core.StaticLogicalPolicy{
			Priorities: core.LogicalSchedule{"L0": 4, "L2": 8}, Default: 1,
		}, core.MaxPriorityRule)
	}
	c := NewCanary(Config{Window: 3})
	slot := c.Slot(core.GroupPerQuery(core.NewQSPolicy()))
	if core.InPlaceOf(slot) == nil {
		t.Fatal("a slot must run in place")
	}
	next := []core.Policy{static(), core.GroupPerQuery(core.NewQSPolicy()), scheduleOnly{static()},
		scheduleOnly{core.GroupPerQuery(core.NewQSPolicy())}, static()}
	rng := rand.New(rand.NewSource(3))
	var out core.Schedule
	out.Single = map[string]float64{}
	now := time.Duration(0)
	for cycle := 0; cycle < 60; cycle++ {
		if i := cycle / 10; cycle%10 == 5 && i < len(next) {
			if err := c.Propose(now, fmt.Sprintf("cand-%d", i), next[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		v := randomSlotView(rng)
		want, err := slot.Schedule(v)
		if err != nil {
			t.Fatal(err)
		}
		resetSchedule(&out)
		if err := slot.ScheduleInto(v, &out); err != nil {
			t.Fatal(err)
		}
		if !sameSchedule(out, want) {
			t.Fatalf("cycle %d (%s): ScheduleInto = %+v, Schedule = %+v", cycle, c.Status().Candidate, out, want)
		}
		for gid, g := range out.Groups {
			if len(g.Ops) == 0 {
				t.Fatalf("cycle %d: group %s left without ops", cycle, gid)
			}
		}
		c.Tick(now)
		now += time.Second
	}
	if st := c.Status(); st.Promotions != int64(len(next)) {
		t.Fatalf("promotions = %d, want %d", st.Promotions, len(next))
	}
}

// slotDriver serves fixed entities and a queue size per entity.
type slotDriver struct {
	name string
	ents []core.Entity
}

func (d *slotDriver) Name() string            { return d.name }
func (d *slotDriver) Entities() []core.Entity { return d.ents }
func (d *slotDriver) Provides(m string) bool  { return m == core.MetricQueueSize }
func (d *slotDriver) Fetch(string, time.Duration) (core.EntityValues, error) {
	vals := core.EntityValues{}
	for i, e := range d.ents {
		vals[e.Name] = float64(i)
	}
	return vals, nil
}

// nopOS accepts every control op.
type nopOS struct{}

func (nopOS) SetNice(int, int) error       { return nil }
func (nopOS) EnsureCgroup(string) error    { return nil }
func (nopOS) SetShares(string, int) error  { return nil }
func (nopOS) MoveThread(int, string) error { return nil }

// TestSlotsShareAPromotedPolicyConcurrently: after a promotion every slot
// runs the same policy instance, and bindings on distinct drivers apply
// in parallel, so that instance's in-place scratch is reached from
// several goroutines at once (run with -race).
func TestSlotsShareAPromotedPolicyConcurrently(t *testing.T) {
	c := NewCanary(Config{Window: 1})
	mw := core.NewMiddleware(nil)
	defer mw.Close()
	mw.SetWriteGate(core.NewDriverGate())
	mw.SetParallelism(core.Parallelism{FetchWorkers: 4, ApplyWorkers: 4})
	for b := 0; b < 8; b++ {
		d := &slotDriver{name: fmt.Sprintf("d%d", b)}
		for i := 0; i < 4; i++ {
			d.ents = append(d.ents, core.Entity{Name: fmt.Sprintf("%s.op%d", d.name, i), Driver: d.name,
				Query: fmt.Sprintf("q%d", i%2), Thread: 10*b + i + 1, Logical: []string{fmt.Sprintf("L%d", i)}})
		}
		if err := mw.Bind(core.Binding{
			Policy: c.Slot(core.GroupPerQuery(core.NewQSPolicy())), Translator: core.NewCombinedTranslator(nopOS{}, 0, 0),
			Drivers: []core.Driver{d}, Period: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	shared := core.GroupPerQuery(core.Transformed(&core.StaticLogicalPolicy{
		Priorities: core.LogicalSchedule{"L0": 3, "L1": 7}, Default: 1,
	}, nil))
	if err := c.Propose(0, "shared", shared, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		now := time.Duration(i) * time.Second
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
		c.Tick(now)
	}
	if st := c.Status(); st.Promotions != 1 || st.Active {
		t.Fatalf("status = %+v, want the shared policy promoted", st)
	}
}

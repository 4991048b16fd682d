package core_test

import (
	"fmt"
	"sort"
	"time"

	"lachesis/internal/core"
)

// ExampleNormalizeToNice shows the §5.3 normalization: linear priorities
// are min-max mapped onto the 40 nice values, with the highest priority
// getting the strongest (lowest) nice.
func ExampleNormalizeToNice() {
	priorities := map[string]float64{
		"bottleneck": 120, // longest queue
		"mid":        60,
		"idle":       0,
	}
	nices := core.NormalizeToNice(priorities, core.ScaleLinear)
	names := []string{"bottleneck", "mid", "idle"}
	for _, n := range names {
		fmt.Printf("%s -> nice %d\n", n, nices[n])
	}
	// Output:
	// bottleneck -> nice -20
	// mid -> nice -1
	// idle -> nice 19
}

// ExampleMaxPriorityRule shows Algorithm 2: a fused physical operator
// inherits the highest priority of its logical operators, and fission
// replicas inherit their logical operator's priority.
func ExampleMaxPriorityRule() {
	entities := map[string]core.Entity{
		"cde": {Name: "cde", Logical: []string{"C", "D", "E"}}, // fusion
		"f0":  {Name: "f0", Logical: []string{"F"}},            // fission
		"f1":  {Name: "f1", Logical: []string{"F"}},
	}
	logical := core.LogicalSchedule{"C": 1, "D": 9, "E": 2, "F": 5}
	physical := map[string]float64{}
	core.MaxPriorityRule(logical, entities, physical)
	var names []string
	for name := range physical {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s -> %.0f\n", name, physical[name])
	}
	// Output:
	// cde -> 9
	// f0 -> 5
	// f1 -> 5
}

// ExampleQSPolicy shows a policy run over a metric view: queue sizes in,
// priorities out.
func ExampleQSPolicy() {
	entities := map[string]core.Entity{
		"parse": {Name: "parse", Thread: 11},
		"count": {Name: "count", Thread: 12},
	}
	view := core.NewView(time.Second, entities, map[string]core.EntityValues{
		core.MetricQueueSize: {"parse": 3, "count": 250},
	})
	sched, err := core.NewQSPolicy().Schedule(view)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("parse priority %.0f, count priority %.0f\n",
		sched.Single["parse"], sched.Single["count"])
	// Output:
	// parse priority 3, count priority 250
}

// ExampleProvider shows Algorithm 3 deriving a metric a driver does not
// provide directly: selectivity from cumulative in/out counts over two
// scheduling periods.
func ExampleProvider() {
	drv := &countsDriver{in: 1000, out: 500}
	p := core.NewProvider(nil)
	if err := p.Register(core.MetricSelectivity); err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, err := p.Update(1*time.Second, []core.Driver{drv}); err != nil {
		fmt.Println("error:", err)
		return
	}
	drv.in, drv.out = 3000, 1500
	vals, err := p.Update(2*time.Second, []core.Driver{drv})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("derived selectivity: %.2f\n", vals["storm"][core.MetricSelectivity]["op"])
	// Output:
	// derived selectivity: 0.50
}

// countsDriver is a Storm-like driver providing only cumulative counters.
type countsDriver struct {
	in, out float64
}

func (d *countsDriver) Name() string { return "storm" }
func (d *countsDriver) Entities() []core.Entity {
	return []core.Entity{{Name: "op", Driver: "storm", Thread: 1}}
}
func (d *countsDriver) Provides(metric string) bool {
	return metric == core.MetricInCount || metric == core.MetricOutCount
}
func (d *countsDriver) Fetch(metric string, _ time.Duration) (core.EntityValues, error) {
	switch metric {
	case core.MetricInCount:
		return core.EntityValues{"op": d.in}, nil
	case core.MetricOutCount:
		return core.EntityValues{"op": d.out}, nil
	}
	return nil, &core.UnknownMetricError{Metric: metric, Driver: "storm"}
}

package spe_test

import (
	"testing"
	"time"

	"lachesis/internal/simos"
	"lachesis/internal/spe"
	"lachesis/internal/workloads"
)

// TestSimulationSecondAllocs bounds the allocations of one simulated
// second of Linear Road on Storm at 5k tuples/s after warm-up
// (BenchmarkEngineSimulationSecond's setup). Dispatch, wake-ups, emits and
// wait checks allocate nothing; what remains is the occasional growth of
// a queue or scratch buffer.
func TestSimulationSecondAllocs(t *testing.T) {
	k := simos.New(simos.OdroidXU4())
	e, err := spe.New(k, spe.Config{Name: "storm", Flavor: spe.FlavorStorm, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Deploy(workloads.LinearRoad(1), workloads.LRSource(5000, 1)); err != nil {
		t.Fatal(err)
	}
	now := 5 * time.Second
	k.RunUntil(now)
	avg := testing.AllocsPerRun(5, func() {
		now += time.Second
		k.RunUntil(now)
	})
	if avg > 4 {
		t.Fatalf("one simulated second allocates %.1f times, want <= 4", avg)
	}
}

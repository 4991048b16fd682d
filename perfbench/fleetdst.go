package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lachesis/internal/dst"
	"lachesis/internal/guard"
)

// fleet-dst: the deterministic-simulation corpus the repository's tests
// pin, seeds [0, dstSeeds) (fault schedules against the fleet coordinator
// replicas, agents and their canary and epoch gates), run through
// dst.Generate and dst.RunSchedule (what dst.RunSeed runs) one seed at a
// time, in an order --seed shuffles. A run
// sweeps the corpus until its time is up; every sweep must find no
// invariant violation and the same aggregate counters. One worker rather
// than nproc: with two, which seeds happen to share the vCPUs moved CPU per
// seed and peak memory from run to run.

const (
	dstSeeds = 200
	// dstWarmup is how many seeds of the corpus a set-up runs.
	dstWarmup = 16
	// dstSetups is how many times a run sets up; setup_s is the median.
	dstSetups = 7
)

// dstAggregate is what one sweep of the corpus adds up to.
type dstAggregate struct {
	violations, failovers, promoted, rolledBack, events, ticks int
	gateRejects                                                int64
}

// dstSweep is one sweep's measurements.
type dstSweep struct {
	agg   dstAggregate
	walls []float64 // ms per seed
	cpus  []float64 // process CPU ms per seed
	gen   time.Duration
	run   time.Duration
	wall  time.Duration
	bad   []string
}

// sweep runs seeds in order, timing schedule generation and the run
// apart (dst.RunSeed is exactly the two in sequence).
func sweep(seeds []int64) (dstSweep, error) {
	var sw dstSweep
	w0 := time.Now()
	for _, seed := range seeds {
		s, c := time.Now(), cpuTime()
		sched := dst.Generate(seed)
		sw.gen += time.Since(s)
		r := time.Now()
		res, err := dst.RunSchedule(sched, dst.Options{})
		sw.run += time.Since(r)
		if err != nil {
			return sw, fmt.Errorf("seed %d: %w", seed, err)
		}
		sw.walls = append(sw.walls, ms(time.Since(s)))
		sw.cpus = append(sw.cpus, ms(cpuTime()-c))
		sw.agg.add(res)
		if res.Violation != nil {
			sw.bad = append(sw.bad, fmt.Sprintf("seed %d violates %s: %s", seed, res.Violation.Invariant, res.Violation.Detail))
		}
	}
	sw.wall = time.Since(w0)
	return sw, nil
}

func (a *dstAggregate) add(r *dst.Result) {
	if r.Violation != nil {
		a.violations++
	}
	a.failovers += r.Failovers
	a.gateRejects += r.GateRejects
	a.events += r.Events
	a.ticks += r.Ticks
	switch r.Decision {
	case guard.DecisionPromoted:
		a.promoted++
	case guard.DecisionRolledBack:
		a.rolledBack++
	}
}

func runFleetDST(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}, notes: map[string]string{}}
	corpus := make([]int64, dstSeeds)
	for i := range corpus {
		corpus[i] = int64(i)
	}
	seeds := append([]int64(nil), corpus...)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })

	// Every set-up runs the same seeds, the corpus's first dstWarmup, so
	// --seed changes the measured order but not the set-up's work, and
	// starts from a collected heap, so it does not pay for the garbage of
	// the one before. Its cost is process CPU time, which host steal and
	// other tenants' disk load do not inflate.
	var setups, setupWalls []float64
	for i := 0; i < dstSetups; i++ {
		runtime.GC()
		c, s := cpuTime(), time.Now()
		if _, err := sweep(corpus[:dstWarmup]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, (cpuTime() - c).Seconds())
		setupWalls = append(setupWalls, time.Since(s).Seconds())
	}

	deadline := time.Now().Add(cfg.seconds)
	var sweeps []dstSweep
	for len(sweeps) == 0 || time.Now().Before(deadline) && ctx.Err() == nil {
		sw, err := sweep(seeds)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, sw)
	}
	if ctx.Err() != nil {
		return out, nil
	}

	var walls, cpus []float64
	var wall, gen, run time.Duration
	ref := sweeps[0].agg
	for i, sw := range sweeps {
		out.attempted += int64(len(sw.walls))
		for _, b := range sw.bad {
			out.fail("sweep %d: %s", i, b)
		}
		if sw.agg != ref {
			out.fail("sweep %d: aggregate %+v differs from the first sweep's %+v", i, sw.agg, ref)
		}
		walls = append(walls, sw.walls...)
		cpus = append(cpus, sw.cpus...)
		wall += sw.wall
		gen += sw.gen
		run += sw.run
	}
	n := float64(len(walls))
	out.setEndToEnd(median(setups), median(setupWalls), median(cpus), walls, "seeds", "seeds_per_s", n/wall.Seconds())
	out.add("sweeps", float64(len(sweeps)), "count")
	out.add("failovers_per_sweep", float64(ref.failovers), "count")
	out.add("promoted_per_sweep", float64(ref.promoted), "count")
	out.add("rolled_back_per_sweep", float64(ref.rolledBack), "count")
	out.notes["seed_range"] = fmt.Sprintf("[0, %d), one seed at a time", dstSeeds)

	if cfg.trace {
		L := out.layers
		L["dst.generate_us_per_seed"] = us(gen) / n
		L["dst.run_ms_per_seed"] = ms(run) / n
		L["dst.events_per_seed"] = float64(ref.events) / dstSeeds
		L["dst.ticks_per_seed"] = float64(ref.ticks) / dstSeeds
		L["fleet.failovers"] = float64(ref.failovers)
		L["fleet.gate_rejects"] = float64(ref.gateRejects)
		L["fleet.promoted"] = float64(ref.promoted)
		L["fleet.rolled_back"] = float64(ref.rolledBack)
		// The untraced sweep times the same two calls, so the traced run
		// is the untraced program.
		L["trace.overhead_ratio"] = 1
	}
	return out, nil
}

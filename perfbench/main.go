// Command perfbench is the repository benchmark: four seeded workloads
// that drive Lachesis's public packages end to end and, in a separate
// traced run, time the calls into each layer. See README.md for why each
// workload exists and what each metric should move.
//
//	perfbench --workload control-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines carry the run's
// provenance and a human-readable report of every metric by name and
// unit. Any set-up or correctness failure exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload hands back: its correctness counts, the
// end-to-end values the benchmark gates on, the workload-specific report
// and, in a traced run, the per-layer values.
type outcome struct {
	attempted int64
	failed    int64
	// problems describes each failed check, printed before the result.
	problems []string
	e2e      map[string]float64
	report   []reportItem
	layers   map[string]float64
	notes    map[string]string
}

// reportItem is one metric of the human-readable report, named as the
// workload documentation names it.
type reportItem struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) add(name string, value float64, unit string) {
	o.report = append(o.report, reportItem{name, value, unit})
}

// setEndToEnd records the gated metrics and reports every end-to-end
// metric: setup (CPU seconds, gated, and wall seconds), the cycle
// wall-time median and tail, the work rate (named for the workload), CPU
// per cycle and peak memory. walls are the cycles' wall times in ms and
// cycles names what a cycle is.
func (o *outcome) setEndToEnd(setupS, setupWallS, cpuMS float64, walls []float64, cycles, rateName string, rate float64) {
	q, tailMS := tail(walls)
	o.e2e = map[string]float64{"setup_s": setupS, "cpu_ms_per_cycle": cpuMS, "peak_rss_mb": peakRSSMB()}
	o.add("setup_s", setupS, "s")
	o.add("setup_wall_s", setupWallS, "s")
	o.add("cycle_p50_ms", median(walls), "ms")
	o.add("cycle_tail_ms", tailMS, "ms")
	o.add(rateName, rate, "1/s")
	o.add("cpu_ms_per_cycle", cpuMS, "ms")
	o.add("peak_rss_mb", o.e2e["peak_rss_mb"], "MB")
	o.notes["cycle_tail_ms"] = fmt.Sprintf("p%.1f of %d %s", q, len(walls), cycles)
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports in its result, in
// BENCHMARK.json order. "cycle" is the workload's unit of work: one
// Middleware.Step on the control workloads, one simulated second on
// lr-spike, one seed on fleet-dst. The wall-clock cycle times and rates
// are printed in the report but not gated: on a shared host they follow
// other tenants' CPU and disk load more than the program (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_cycle", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"core.fetch_us_per_binding", "us"},
	{"core.schedule_us_per_binding", "us"},
	{"core.cycle_other_ms", "ms"},
	{"core.seq_cycle_ms", "ms"},
	{"core.translate_us_per_binding", "us"},
	{"core.coalesce_us_per_op", "us"},
	{"core.coalesce_suppressed_ratio", "ratio"},
	{"core.coalesce_ops", "count"},
	{"core.audit_us_per_op", "us"},
	{"guard.check_us_per_batch", "us"},
	{"guard.canary_tick_us", "us"},
	{"reconcile.record_us_per_op", "us"},
	{"reconcile.log_appends_per_cycle", "count"},
	{"reconcile.pass_ms", "ms"},
	{"reconcile.repaired_per_pass", "count"},
	{"oslinux.nice_us", "us"},
	{"oslinux.shares_us", "us"},
	{"oslinux.move_us", "us"},
	{"oslinux.identity_us", "us"},
	{"oslinux.observe_us", "us"},
	{"oslinux.failed_ops", "count"},
	{"metrics.latest_us", "us"},
	{"metrics.record_us", "us"},
	{"simos.wall_ms_per_sim_s", "ms"},
	{"simos.switches_per_sim_s", "1/s"},
	{"spe.tuples_per_sim_s", "1/s"},
	{"spe.backlog_peak", "count"},
	{"simctl.control_ops", "count"},
	{"core.mw_wall_share", "ratio"},
	{"dst.generate_us_per_seed", "us"},
	{"dst.run_ms_per_seed", "ms"},
	{"dst.events_per_seed", "count"},
	{"dst.ticks_per_seed", "count"},
	{"fleet.failovers", "count"},
	{"fleet.gate_rejects", "count"},
	{"fleet.promoted", "count"},
	{"fleet.rolled_back", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// runners maps each workload name to its runner.
var runners = map[string]func(ctx context.Context, cfg runConfig) (*outcome, error){
	"lr-spike":       runLRSpike,
	"control-steady": func(ctx context.Context, cfg runConfig) (*outcome, error) { return runControl(ctx, cfg, false) },
	"control-churn":  func(ctx context.Context, cfg runConfig) (*outcome, error) { return runControl(ctx, cfg, true) },
	"fleet-dst":      runFleetDST,
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == helperArg {
		n, err := strconv.Atoi(os.Args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: helper:", err)
			os.Exit(2)
		}
		runHelper(n)
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: lr-spike, control-steady, control-churn or fleet-dst")
		seed     = fs.Int64("seed", 1, "seed all inputs are generated from")
		seconds  = fs.Int("seconds", 10, "how long the measured phase runs, in wall seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := runners[*workload]
	if !ok {
		names := make([]string, 0, len(runners))
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	// An interrupt cancels the workload, which then tears down what it
	// set up before this function returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	prov := collectProvenance(args, cfg.seed)
	out, err := wl(ctx, cfg)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return errors.New("interrupted")
	}
	return printOutcome(stdout, *workload, cfg, prov, out)
}

// printOutcome writes the provenance line, the report and, last, the
// result object.
func printOutcome(w io.Writer, workload string, cfg runConfig, prov provenance, out *outcome) error {
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", pj)
	fmt.Fprintf(w, "workload %s seed %d seconds %.0f trace %v\n", workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	for _, p := range out.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	fmt.Fprintf(w, "report %-34s %14.6g %s\n", "fail_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	for _, it := range out.report {
		fmt.Fprintf(w, "report %-34s %14.6g %s\n", it.name, it.value, it.unit)
	}
	keys := make([]string, 0, len(out.notes))
	for k := range out.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "note %s: %s\n", k, out.notes[k])
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric)
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layers
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", workload, d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		if cfg.trace {
			fmt.Fprintf(w, "layer %-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

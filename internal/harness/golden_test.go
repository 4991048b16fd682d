package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"lachesis/internal/simos"
	"lachesis/internal/spe"
	"lachesis/internal/workloads"
)

// simDigest builds a setup, runs it for the given virtual time, and hashes
// everything the scheduling substrate decides: each operator's counters,
// queue and latency figures, each kernel thread's CPU time, vruntime,
// dispatches and wakeups, the node's switch and busy totals, and the
// count of corrected Runner results.
func simDigest(t *testing.T, s Setup, rate float64, until time.Duration) string {
	t.Helper()
	st, err := build(s, rate, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := st.kernel
	k.RunUntil(until)
	h := sha256.New()
	for _, eng := range st.engines {
		for _, op := range eng.Ops() {
			fmt.Fprintf(h, "%+v\n", op.Snapshot(k.Now()))
		}
	}
	for _, d := range st.deployments {
		l := d.Latencies()
		fmt.Fprintf(h, "%d %v %v %v\n", l.Count, l.MeanProc, l.MeanE2E, l.ProcSamples)
	}
	for _, tid := range k.Threads() {
		info, err := k.ThreadInfo(tid)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%+v\n", info)
	}
	fmt.Fprintf(h, "now=%v switches=%d busy=%v violations=%d\n",
		k.Now(), k.ContextSwitches(), k.TotalBusyTime(), k.ContractViolations())
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulatorGoldenDigest pins the scheduling behaviour of the simulated
// node and engine to digests recorded before the allocation-free dispatch
// rewrite. TestRunIsDeterministic and simos.TestDeterminism only compare
// two runs of the same build; this test compares against an earlier one,
// so an optimisation that reorders events, picks or wakes fails here.
func TestSimulatorGoldenDigest(t *testing.T) {
	lr := func() *spe.LogicalQuery { return workloads.LinearRoad(1) }
	lrSetup := func(flavor spe.Flavor, sched Scheduler, tr Translator) Setup {
		return Setup{
			Name:       string(sched),
			Machine:    simos.OdroidXU4(),
			Engines:    []EngineSpec{{Flavor: flavor}},
			Queries:    []QuerySpec{{Build: lr, Source: workloads.LRSource}},
			Scheduler:  sched,
			Translator: tr,
			Seed:       11,
		}
	}
	blocking := synSetups(Scale{}, true, []Scheduler{SchedHarenFCFS}, 0)[0]
	cases := []struct {
		name  string
		setup Setup
		rate  float64
		want  string
	}{
		{"lr-storm-qs", lrSetup(spe.FlavorStorm, SchedLachesisQS, ""), 5000,
			"405f016d598c9c2f02dbdf82266ba61acc25346c12aeb46f7163ff8863dec117"},
		{"lr-storm-edgewise", lrSetup(spe.FlavorStorm, SchedEdgeWise, ""), 4500,
			"0215b713c83969d77728ef3168d4dc7e1078f0ce77bedf445b1e67a803f2dd58"},
		{"lr-flink-qs", lrSetup(spe.FlavorFlink, SchedLachesisQS, ""), 5500,
			"73a7e2b71cc661b1eb13957bf2e673d1db4c95f7f52f9943769ce80e18acda97"},
		{"lr-storm-qs-rt", lrSetup(spe.FlavorStorm, SchedLachesisQS, TranslateRT), 5000,
			"21530c8250b797e2469889acb81f59177fe9bed6c11a0bc6e4fa033dd1d101d1"},
		{"syn-blocking-haren", blocking, 350,
			"ff07313de302e573f23e40d8c045e59fbacdfe9ab16a70a2da5e0cf499248e37"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := simDigest(t, c.setup, c.rate, 12*time.Second)
			if got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// Package telemetry is Lachesis' self-observation layer: a lock-cheap
// registry of counters, gauges, and log2-bucketed latency histograms that
// the middleware uses to measure its own decision cycle. The paper argues
// Lachesis' overhead is negligible (§6.7, ~1% CPU) but offers no way to
// verify that from inside; this package is that instrument. Hot-path
// operations (Counter.Add, Histogram.Observe) are single atomic updates on
// cached instrument pointers — safe for concurrent use from every Step
// loop, reporter thread, and HTTP exporter at once.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value dimension of an instrument.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the bucket count of the log2 histogram: bucket i counts
// observations whose duration in nanoseconds has bit length i, i.e. values
// in [2^(i-1), 2^i). 64 buckets cover the full int64 nanosecond range
// (bucket 40 is already ~18 minutes).
const histBuckets = 64

// Histogram is a log2-bucketed latency histogram. Observe is one atomic
// add; quantiles are estimated by linear interpolation inside the matching
// power-of-two bucket, so they carry at most a factor-2 relative error —
// plenty for the "is the decision cycle microseconds or milliseconds"
// question the overhead experiment asks.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	// exemplars[i] holds the most recent exemplar (e.g. a trace ID)
	// attached to an observation in bucket i, linking an outlier bucket
	// back to the trace that produced it.
	exemplars [histBuckets]atomic.Pointer[string]
}

// Observe records one duration (negative durations count as zero).
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	if d < 0 {
		d = 0
	}
	h.sum.Add(int64(d))
}

// ObserveExemplar records d like Observe and attaches exemplar to d's
// bucket (an empty exemplar records nothing extra), so Exemplar can name
// the trace behind a quantile.
func (h *Histogram) ObserveExemplar(d time.Duration, exemplar string) {
	h.Observe(d)
	if exemplar != "" {
		e := exemplar
		h.exemplars[bucketIndex(d)].Store(&e)
	}
}

// bucketIndex maps a duration to its log2 bucket (negatives map to 0).
func bucketIndex(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	idx := bits.Len64(uint64(d))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-quantile (0 <= q <= 1; out-of-range values
// are clamped) of the observations. It returns 0 for an empty histogram.
// Within the matching bucket the observation ranks are treated as
// uniformly spread over the bucket's representable values [lo, hi-1], so
// the estimate never exceeds the largest duration the bucket can hold —
// in particular a single observation yields the bucket midpoint for
// every q, instead of the old behavior of returning the exclusive upper
// bound hi (a value that cannot have been observed).
func (h *Histogram) Quantile(q float64) time.Duration {
	idx, frac, ok := h.locate(q)
	if !ok {
		return 0
	}
	lo, hi := bucketBounds(idx)
	upper := hi
	if hi > lo {
		// hi is exclusive: the largest value bucket idx can hold is hi-1.
		upper = hi - 1
	}
	return lo + time.Duration(frac*float64(upper-lo))
}

// Exemplar returns the most recent exemplar attached to the bucket
// containing the q-quantile (ok is false when the histogram is empty or
// that bucket never carried an exemplar).
func (h *Histogram) Exemplar(q float64) (string, bool) {
	idx, _, ok := h.locate(q)
	if !ok {
		return "", false
	}
	p := h.exemplars[idx].Load()
	if p == nil {
		return "", false
	}
	return *p, true
}

// locate finds the bucket holding the q-quantile and the interpolation
// fraction within it. Rank r of n in-bucket observations sits at
// fractional position (r - 0.5) / n — rank centers, clamped to [0, 1] —
// which keeps q=0 at the low edge and q=1 at the high edge of the data
// rather than overshooting the bucket.
func (h *Histogram) locate(q float64) (idx int, frac float64, ok bool) {
	total := h.count.Load()
	if total == 0 {
		return 0, 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i := 0; i < histBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			frac = (target - cum - 0.5) / n
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return i, frac, true
		}
		cum += n
	}
	return histBuckets - 1, 1, true
}

// bucketBounds returns the [lo, hi) duration range of bucket i.
func bucketBounds(i int) (lo, hi time.Duration) {
	if i == 0 {
		return 0, 0
	}
	if i >= 63 {
		return time.Duration(1) << 62, math.MaxInt64
	}
	return time.Duration(1) << (i - 1), time.Duration(1) << i
}

// HistogramSummary is a point-in-time quantile summary of a histogram.
type HistogramSummary struct {
	Count         int64
	Sum           time.Duration
	Mean          time.Duration
	P50, P95, P99 time.Duration
}

// Summary returns the histogram's count, sum, mean, and p50/p95/p99.
func (h *Histogram) Summary() HistogramSummary {
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// instrumentKind discriminates the registry's families.
type instrumentKind int

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
)

func (k instrumentKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("instrumentKind(%d)", int(k))
	}
}

// family groups all labeled instances of one metric name.
type family struct {
	kind  instrumentKind
	items map[string]any // rendered label string -> instrument
}

// Registry is a concurrent collection of named instruments. Get-or-create
// lookups take a read lock on the fast path; callers on hot paths should
// cache the returned instrument pointer and use it directly.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter with the given name and labels, creating it
// on first use. It panics if the name is already registered with a
// different instrument kind (a programming error).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if v, ok := r.lookup(name, kindCounter, labels); ok {
		return v.(*Counter)
	}
	return r.create(name, kindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if v, ok := r.lookup(name, kindGauge, labels); ok {
		return v.(*Gauge)
	}
	return r.create(name, kindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram with the given name and labels, creating
// it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if v, ok := r.lookup(name, kindHistogram, labels); ok {
		return v.(*Histogram)
	}
	return r.create(name, kindHistogram, labels, func() any { return &Histogram{} }).(*Histogram)
}

// lookup is the read-locked fast path.
func (r *Registry) lookup(name string, kind instrumentKind, labels []Label) (any, bool) {
	key := renderLabels(labels)
	r.mu.RLock()
	defer r.mu.RUnlock()
	fam, ok := r.families[name]
	if !ok {
		return nil, false
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: %q registered as %v, requested as %v", name, fam.kind, kind))
	}
	item, ok := fam.items[key]
	return item, ok
}

// create is the write-locked slow path.
func (r *Registry) create(name string, kind instrumentKind, labels []Label, mk func() any) any {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{kind: kind, items: make(map[string]any)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: %q registered as %v, requested as %v", name, fam.kind, kind))
	}
	if item, ok := fam.items[key]; ok {
		return item
	}
	item := mk()
	fam.items[key] = item
	return item
}

// renderLabels serializes labels in sorted key order: `{k1="v1",k2="v2"}`
// or "" for none.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders every instrument in the Prometheus text exposition
// format (version 0.0.4), with families and label sets in sorted order so
// the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type snap struct {
		name  string
		kind  instrumentKind
		keys  []string
		items []any // items[i] is the instrument under keys[i]
	}
	// The instrument pointers are copied under the lock: a family's map
	// keeps growing while instruments are created concurrently.
	snaps := make([]snap, 0, len(names))
	for _, name := range names {
		fam := r.families[name]
		keys := make([]string, 0, len(fam.items))
		for k := range fam.items {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		items := make([]any, len(keys))
		for i, k := range keys {
			items[i] = fam.items[k]
		}
		snaps = append(snaps, snap{name: name, kind: fam.kind, keys: keys, items: items})
	}
	r.mu.RUnlock()

	for _, s := range snaps {
		if _, err := fmt.Fprintf(w, "# TYPE %s %v\n", s.name, s.kind); err != nil {
			return err
		}
		for i, key := range s.keys {
			switch item := s.items[i].(type) {
			case *Counter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", s.name, key, item.Value()); err != nil {
					return err
				}
			case *Gauge:
				if _, err := fmt.Fprintf(w, "%s%s %g\n", s.name, key, item.Value()); err != nil {
					return err
				}
			case *Histogram:
				if err := writePromHistogram(w, s.name, key, item); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writePromHistogram renders one histogram instance as cumulative
// `_bucket{le=...}` lines (seconds) plus `_sum` and `_count`.
func writePromHistogram(w io.Writer, name, labelKey string, h *Histogram) error {
	var cum int64
	lastNonZero := -1
	counts := make([]int64, histBuckets)
	for i := 0; i < histBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			lastNonZero = i
		}
	}
	for i := 0; i <= lastNonZero; i++ {
		cum += counts[i]
		if counts[i] == 0 && i != lastNonZero {
			continue // keep the output short: only emit buckets that changed
		}
		_, hi := bucketBounds(i)
		le := float64(hi) / float64(time.Second)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, withLE(labelKey, fmt.Sprintf("%g", le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labelKey, "+Inf"), h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labelKey, h.Sum().Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelKey, h.Count())
	return err
}

// withLE splices an le label into a rendered label set.
func withLE(labelKey, le string) string {
	if labelKey == "" {
		return `{le="` + le + `"}`
	}
	return labelKey[:len(labelKey)-1] + `,le="` + le + `"}`
}

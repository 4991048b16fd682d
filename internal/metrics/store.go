// Package metrics provides the Graphite-like time-series store through
// which Lachesis observes the SPEs. Engines publish raw metric samples into
// the store; the Lachesis drivers read them back. The store quantizes
// samples to a fixed resolution (one second in the paper's evaluation), so
// the middleware always works with metrics that are up to one resolution
// interval stale — a deliberately modeled disadvantage versus user-level
// schedulers that read fresh in-engine state (§6.4, Fig. 15).
//
// The store is sharded: series are hashed across DefaultShards independent
// buckets, each with its own lock, so concurrent reporters (one per SPE)
// and concurrent driver fetches (the middleware's parallel fetch pool)
// never serialize on a single store-wide mutex.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultResolution matches the paper's Graphite deployment: one second.
const DefaultResolution = time.Second

// defaultRetention is how many buckets each series keeps.
const defaultRetention = 240

// DefaultShards is how many independently locked shards a store spreads
// its series over. Sixteen keeps the per-shard maps small and makes lock
// collisions between unrelated series unlikely without bloating the
// fixed per-store footprint.
const DefaultShards = 16

// Point is one quantized sample.
type Point struct {
	At    time.Duration
	Value float64
}

// shard is one independently locked slice of the series keyspace.
type shard struct {
	mu     sync.RWMutex
	series map[string]*ring
}

// ring is one series' retained samples, oldest first, in a ring buffer
// of at most the store's retention. While every sample lands in the bucket
// right after the previous one, only values are kept (8 B per sample)
// and the times follow from the newest bucket; the first sample that
// skips or goes back a bucket switches the series to explicit times for
// good.
type ring struct {
	vals []float64       // ring storage; len is the capacity
	ats  []time.Duration // explicit times, parallel to vals; nil while implicit
	head int             // ring index of the oldest sample
	n    int             // samples held
	last time.Duration   // bucket of the newest sample
}

// idx maps the i-th oldest sample to its ring index.
func (r *ring) idx(i int) int { return (r.head + i) % len(r.vals) }

// at returns the i-th oldest sample.
func (r *ring) at(i int, res time.Duration) Point {
	j := r.idx(i)
	if r.ats != nil {
		return Point{At: r.ats[j], Value: r.vals[j]}
	}
	return Point{At: r.last - time.Duration(r.n-1-i)*res, Value: r.vals[j]}
}

// push appends a sample in bucket at as the newest, growing the ring up
// to retention and then overwriting the oldest sample. It reports
// whether a sample was evicted.
func (r *ring) push(at time.Duration, v float64, res time.Duration, retention int) bool {
	if r.ats == nil && r.n > 0 && at != r.last+res {
		ats := make([]time.Duration, len(r.vals))
		for i := 0; i < r.n; i++ {
			ats[r.idx(i)] = r.at(i, res).At
		}
		r.ats = ats
	}
	evicted := false
	if r.n == len(r.vals) {
		if r.n < retention {
			r.grow(min(max(2*r.n, 1), retention))
		} else {
			r.head = r.idx(1)
			r.n--
			evicted = true
		}
	}
	j := r.idx(r.n)
	r.vals[j] = v
	if r.ats != nil {
		r.ats[j] = at
	}
	r.n++
	r.last = at
	return evicted
}

// grow reallocates the ring with capacity c, oldest sample first.
func (r *ring) grow(c int) {
	vals := make([]float64, c)
	var ats []time.Duration
	if r.ats != nil {
		ats = make([]time.Duration, c)
	}
	for i := 0; i < r.n; i++ {
		j := r.idx(i)
		vals[i] = r.vals[j]
		if ats != nil {
			ats[i] = r.ats[j]
		}
	}
	r.vals, r.ats, r.head = vals, ats, 0
}

// Store is an in-memory time-series database with fixed resolution. All
// methods are safe for concurrent use; samples for distinct series hash to
// (usually) distinct shards and proceed without contention.
type Store struct {
	resolution time.Duration
	retention  int
	window     atomic.Int64 // retention window in ns; 0 = count-based only
	shards     []shard

	records atomic.Int64
	evicted atomic.Int64
}

// NewStore creates a store with DefaultShards shards. resolution <= 0
// selects DefaultResolution.
func NewStore(resolution time.Duration) *Store {
	return NewShardedStore(resolution, DefaultShards)
}

// NewShardedStore creates a store with an explicit shard count (the
// contention benchmark compares shard counts; shards <= 0 selects 1).
func NewShardedStore(resolution time.Duration, shards int) *Store {
	if resolution <= 0 {
		resolution = DefaultResolution
	}
	if shards <= 0 {
		shards = 1
	}
	s := &Store{
		resolution: resolution,
		retention:  defaultRetention,
		shards:     make([]shard, shards),
	}
	for i := range s.shards {
		s.shards[i].series = make(map[string]*ring)
	}
	return s
}

// shardFor hashes a series name (FNV-1a) onto its shard.
func (s *Store) shardFor(series string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(series); i++ {
		h ^= uint64(series[i])
		h *= prime64
	}
	return &s.shards[h%uint64(len(s.shards))]
}

// Shards returns the shard count (for tests and benchmarks).
func (s *Store) Shards() int { return len(s.shards) }

// Resolution returns the store's time quantum.
func (s *Store) Resolution() time.Duration { return s.resolution }

// Records returns the number of samples recorded over the store's
// lifetime.
func (s *Store) Records() int64 { return s.records.Load() }

// Evicted returns how many samples the retention window has dropped over
// the store's lifetime (always 0 with the window off).
func (s *Store) Evicted() int64 { return s.evicted.Load() }

// SetRetentionWindow enables time-based retention: on each Record, samples
// older than window behind the written sample are evicted from that
// series. It composes with the count bound (whichever evicts first wins).
// window <= 0 restores the default, count-based-only retention. A
// long-running daemon uses this to bound memory by age rather than by
// sample count, which count-based retention alone cannot do for series
// reported at different rates.
func (s *Store) SetRetentionWindow(window time.Duration) {
	if window < 0 {
		window = 0
	}
	s.window.Store(int64(window))
}

// RetentionWindow returns the active time-based retention window (0 when
// off).
func (s *Store) RetentionWindow() time.Duration {
	return time.Duration(s.window.Load())
}

// Record stores a sample, quantized down to the containing bucket. A
// second sample in the same bucket overwrites the first. Record implements
// the engine MetricSink interface.
func (s *Store) Record(now time.Duration, series string, value float64) {
	at := now / s.resolution * s.resolution
	s.records.Add(1)
	sh := s.shardFor(series)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.series[series]
	if r == nil {
		r = &ring{}
		sh.series[series] = r
	}
	if r.n > 0 && r.last == at {
		r.vals[r.idx(r.n-1)] = value
		return
	}
	if r.push(at, value, s.resolution, s.retention) {
		s.evicted.Add(1)
	}
	if window := time.Duration(s.window.Load()); window > 0 {
		cutoff := at - window
		drop := 0
		for drop < r.n-1 && r.at(drop, s.resolution).At < cutoff {
			drop++
		}
		if drop > 0 {
			s.evicted.Add(int64(drop))
			r.head = r.idx(drop)
			r.n -= drop
		}
	}
}

// Latest returns the most recent sample of a series.
func (s *Store) Latest(series string) (Point, bool) {
	sh := s.shardFor(series)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.series[series]
	if r == nil || r.n == 0 {
		return Point{}, false
	}
	return r.at(r.n-1, s.resolution), true
}

// At returns the sample in the bucket containing t, or the nearest earlier
// sample (how Graphite answers point queries for sparse series).
func (s *Store) At(series string, t time.Duration) (Point, bool) {
	sh := s.shardFor(series)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.series[series]
	if r == nil || r.n == 0 {
		return Point{}, false
	}
	bucket := t / s.resolution * s.resolution
	idx := sort.Search(r.n, func(i int) bool { return r.at(i, s.resolution).At > bucket })
	if idx == 0 {
		return Point{}, false
	}
	return r.at(idx-1, s.resolution), true
}

// Range returns all samples with from <= At <= to, in time order.
func (s *Store) Range(series string, from, to time.Duration) []Point {
	sh := s.shardFor(series)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.series[series]
	if r == nil {
		return nil
	}
	var out []Point
	for i := 0; i < r.n; i++ {
		if p := r.at(i, s.resolution); p.At >= from && p.At <= to {
			out = append(out, p)
		}
	}
	return out
}

// SeriesNames returns all series names across every shard, sorted.
func (s *Store) SeriesNames() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name := range sh.series {
			out = append(out, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// HasSeries reports whether a series has at least one sample.
func (s *Store) HasSeries(series string) bool {
	sh := s.shardFor(series)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.series[series]
	return r != nil && r.n > 0
}

package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// refSeries is the store's semantics written as a plain slice of points:
// a same-bucket sample overwrites the newest, anything else appends, the
// count bound keeps the newest retention samples, and the window drops
// samples older than window behind the written one (never the newest).
type refSeries struct {
	pts     []Point
	evicted int64
}

func (r *refSeries) record(at time.Duration, v float64, retention int, window time.Duration) {
	if n := len(r.pts); n > 0 && r.pts[n-1].At == at {
		r.pts[n-1].Value = v
		return
	}
	r.pts = append(r.pts, Point{At: at, Value: v})
	if len(r.pts) > retention {
		r.evicted += int64(len(r.pts) - retention)
		r.pts = r.pts[len(r.pts)-retention:]
	}
	if window > 0 {
		drop := 0
		for drop < len(r.pts)-1 && r.pts[drop].At < at-window {
			drop++
		}
		r.evicted += int64(drop)
		r.pts = r.pts[drop:]
	}
}

// TestRingMatchesReference drives the store and the reference with
// seeded sample streams — mostly consecutive buckets, with same-bucket
// rewrites, gaps, steps back in time and window changes — and compares
// every read after every write.
func TestRingMatchesReference(t *testing.T) {
	const res = time.Second
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(res)
		ref := &refSeries{}
		var window time.Duration
		at := time.Duration(rng.Intn(5)) * res
		for step := 0; step < 700; step++ {
			switch r := rng.Intn(100); {
			case r < 80 || seed%4 == 0: // consecutive (some seeds never leave it)
				at += res
			case r < 88: // same bucket
			case r < 95:
				at += time.Duration(2+rng.Intn(4)) * res
			default:
				at = max(at-time.Duration(1+rng.Intn(3))*res, 0)
			}
			if rng.Intn(200) == 0 {
				window = time.Duration(rng.Intn(30)) * res
				s.SetRetentionWindow(window)
			}
			v := rng.Float64()
			now := at + time.Duration(rng.Int63n(int64(res)))
			s.Record(now, "x", v)
			ref.record(at, v, defaultRetention, window)

			got := s.Range("x", -time.Hour, time.Hour)
			if len(got) != len(ref.pts) {
				t.Fatalf("seed %d step %d: %d samples held, reference %d", seed, step, len(got), len(ref.pts))
			}
			for i := range got {
				if got[i] != ref.pts[i] {
					t.Fatalf("seed %d step %d: sample %d is %+v, reference %+v", seed, step, i, got[i], ref.pts[i])
				}
			}
			if p, ok := s.Latest("x"); !ok || p != ref.pts[len(ref.pts)-1] {
				t.Fatalf("seed %d step %d: Latest %+v, reference %+v", seed, step, p, ref.pts[len(ref.pts)-1])
			}
			q := at - time.Duration(rng.Intn(300))*res + time.Duration(rng.Int63n(int64(res)))
			want, wok := refAt(ref.pts, q/res*res)
			if p, ok := s.At("x", q); ok != wok || p != want {
				t.Fatalf("seed %d step %d: At(%v) = %+v %v, reference %+v %v", seed, step, q, p, ok, want, wok)
			}
			if s.Evicted() != ref.evicted {
				t.Fatalf("seed %d step %d: evicted %d, reference %d", seed, step, s.Evicted(), ref.evicted)
			}
		}
	}
}

// refAt is At over the reference points: the last point whose bucket is
// not after the queried one, by binary search as the store has always
// answered (so out-of-order points resolve identically).
func refAt(pts []Point, bucket time.Duration) (Point, bool) {
	lo, hi := 0, len(pts)
	for lo < hi {
		m := (lo + hi) / 2
		if pts[m].At > bucket {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == 0 {
		return Point{}, false
	}
	return pts[lo-1], true
}

// TestRingStaysImplicitAndBounded checks the footprint: a series written
// bucket after bucket keeps no times, and its ring never outgrows the
// retention; the first gap switches it to explicit times.
func TestRingStaysImplicitAndBounded(t *testing.T) {
	s := NewStore(time.Second)
	for i := 0; i < 3*defaultRetention; i++ {
		s.Record(time.Duration(i)*time.Second, "x", float64(i))
	}
	r := s.shardFor("x").series["x"]
	if r.ats != nil {
		t.Fatal("consecutive buckets kept explicit times")
	}
	if len(r.vals) != defaultRetention || r.n != defaultRetention {
		t.Fatalf("ring capacity %d holding %d, want both %d", len(r.vals), r.n, defaultRetention)
	}
	s.Record(time.Hour, "x", -1)
	if r.ats == nil {
		t.Fatal("a gap kept implicit times")
	}
	if p, _ := s.Latest("x"); p.At != time.Hour || p.Value != -1 {
		t.Fatalf("latest after the gap = %+v", p)
	}
	if p, ok := s.At("x", time.Hour-time.Second); !ok || p.Value != float64(3*defaultRetention-1) {
		t.Fatalf("sample before the gap = %+v, %v", p, ok)
	}
}

package dst

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenCorpusDigest is the SHA-256 over seeds 0..199's event logs and
// Result counters. It pins the simulated fleet's behaviour: a change to
// the replica, the agent or the fault wiring that alters any transition
// of any seed moves it. Update it only for an intended behaviour change,
// and say which seeds moved and why.
const goldenCorpusDigest = "735d668484e92c66f9745c04edcbc255be2d2c0f4c4d78625f7919aefc7916de"

// TestGoldenCorpus replays seeds 0..199 and compares the digest of
// their logs and outcomes with goldenCorpusDigest.
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus skipped in -short")
	}
	h := sha256.New()
	for seed := int64(0); seed < 200; seed++ {
		r, err := RunSeed(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		counters, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(counters)
		h.Write([]byte{'\n'})
		h.Write(r.Log.EncodeJSONL())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCorpusDigest {
		t.Fatalf("corpus digest %s, want %s: a seed's events or outcome changed", got, goldenCorpusDigest)
	}
}

package hops_test

import (
	"bytes"
	"testing"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/hops"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestHOPSDFencesAreDurableTransactions cross-checks two consumers of one
// recorded stream: at hopssim's Figure 10 configuration, the HOPS (NVM)
// replay stalls at one dfence per durable transaction, so its DFences
// equals the epoch analysis's Transactions for every simulated member.
func TestHOPSDFencesAreDurableTransactions(t *testing.T) {
	cfg := hops.DefaultConfig()
	for _, b := range whisper.Benchmarks() {
		if !b.Simulatable {
			continue
		}
		rep, err := whisper.Run(b.Name, whisper.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Trace.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r, err := hops.ReplaySource(src, hops.HOPSNVM, cfg, hops.ReplayObs{})
		if err != nil {
			t.Fatal(err)
		}
		if r.DFences != rep.Transactions || r.DFences == 0 {
			t.Errorf("%s: HOPS (NVM) replays %d dfences, the epoch analysis counts %d durable transactions",
				b.Name, r.DFences, rep.Transactions)
		}
	}
}

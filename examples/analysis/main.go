// analysis sweeps the whole WHISPER suite, prints the paper's headline
// findings next to the measured values, and demonstrates trace
// save/re-analyze through the public API.
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/whisper-pm/whisper"
)

func main() {
	fmt.Println("running the WHISPER suite (scaled down; raise Ops for longer runs)...")
	var reports []*whisper.Report
	for _, name := range whisper.Names() {
		r, err := whisper.Run(name, whisper.Config{Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, r)
	}

	// Headline (a): "only 4% of writes in PM-aware applications are to PM".
	var pm, total float64
	for _, r := range reports {
		pm += r.PMShare
		total++
	}
	fmt.Printf("\n(a) PM share of memory accesses, suite average: %.1f%% (paper: ~4%%)\n",
		pm/total*100)

	// Headline (b): "software transactions are often implemented with 5 to
	// 50 ordering points".
	in5to50 := 0
	withTx := 0
	for _, r := range reports {
		if r.Transactions == 0 {
			continue
		}
		withTx++
		if r.MedianTxEpochs >= 5 && r.MedianTxEpochs <= 50 {
			in5to50++
		}
	}
	fmt.Printf("(b) apps with median 5..50 epochs/tx: %d of %d (paper: most)\n",
		in5to50, withTx)

	// Headline (c): "75% of epochs update exactly one 64B cache line".
	var singles float64
	for _, r := range reports {
		singles += r.SingletonFraction
	}
	fmt.Printf("(c) singleton epochs, suite average: %.0f%% (paper: 75%%)\n",
		singles/total*100)

	// Headline (d): "80% of epochs from the same thread depend on previous
	// epochs from the same thread, while few epochs depend on epochs from
	// other threads".
	var self, cross float64
	for _, r := range reports {
		self += r.SelfDeps
		cross += r.CrossDeps
	}
	fmt.Printf("(d) self-deps %.0f%% vs cross-deps %.2f%% (paper: high vs ~0)\n\n",
		self/total*100, cross/total*100)

	// Traces round-trip through the binary codec.
	var buf bytes.Buffer
	if err := reports[0].Trace.Encode(&buf); err != nil {
		log.Fatal(err)
	}
	encoded := buf.Len()
	back, err := whisper.DecodeTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}
	again := whisper.Analyze(back)
	fmt.Printf("trace codec round trip: %s, %d events, %d bytes encoded\n",
		back.App(), back.Events(), encoded)
	if again.TotalEpochs != reports[0].TotalEpochs {
		log.Fatal("re-analysis diverged")
	}

	fmt.Println("\nper-application reports:")
	for _, r := range reports {
		fmt.Print(r.String())
	}
}

// Package epoch implements the paper's trace analysis (§5): epoch
// segmentation, transaction sizes (Figure 3), epoch size distribution
// (Figure 4), self- and cross-dependencies within a 50 µs window
// (Figure 5), epoch rates (Table 1), write amplification and NTI fractions
// (§5.2), and the PM/DRAM access proportion (Figure 6).
//
// An epoch is the set of stores (cacheable or non-temporal) a thread
// issues to PM between two sfences; cache flush operations are ignored,
// exactly as in §5.1.
package epoch

import (
	"sort"

	"github.com/whisper-pm/whisper/internal/mem"
)

// DependencyWindow is the paper's upper bound on how long a flushed line
// may be buffered before becoming persistent: WAW conflicts further apart
// than this cannot constrain persist order.
const DependencyWindow = 50 * mem.Microsecond

// SizeBuckets are the Figure 4 histogram buckets, by unique 64 B lines:
// 1, 2, 3, 4, 5, 6–63, >=64.
var SizeBucketLabels = []string{"1", "2", "3", "4", "5", "6-63", ">=64"}

// NumSizeBuckets is len(SizeBucketLabels).
const NumSizeBuckets = 7

func sizeBucket(lines int) int {
	switch {
	case lines <= 0:
		// Defensive: zero-line epochs are skipped by AnalyzeStream before
		// bucketing (a fence preceded only by flushes or zero-byte stores
		// closes no epoch); without this clamp they would index bucket -1
		// and panic.
		return 0
	case lines <= 5:
		return lines - 1
	case lines < 64:
		return 5
	default:
		return 6
	}
}

// Analysis holds every aggregate the paper's evaluation reports.
type Analysis struct {
	App     string
	Layer   string
	Threads int

	TotalEpochs int
	// SizeHist counts epochs per Figure 4 bucket.
	SizeHist [NumSizeBuckets]int
	// Singletons is the number of one-line epochs; SmallSingletons those
	// updating fewer than 10 bytes (§5.1: ~60% of singletons).
	Singletons      int
	SmallSingletons int

	// TxEpochCounts holds, per completed transaction, the number of
	// epochs it contained (Figure 3 input).
	TxEpochCounts []int

	// SelfDepEpochs / CrossDepEpochs count epochs having at least one
	// WAW dependency within DependencyWindow on an earlier epoch of the
	// same / another thread (Figure 5).
	SelfDepEpochs  int
	CrossDepEpochs int

	// Store mix (§5.2 "How is PM written?").
	CacheableStores uint64
	NTStores        uint64
	CacheableBytes  uint64
	NTBytes         uint64

	// UserBytes are payload bytes declared via trace.KUserData;
	// TotalPMBytes is everything stored to PM. Amplification = extra
	// bytes per user byte (§5.2).
	UserBytes    uint64
	TotalPMBytes uint64

	// Access mix (Figure 6).
	PMAccesses   uint64
	DRAMAccesses uint64

	// Duration is the simulated time spanned; EpochsPerSecond is the
	// Table 1 rate.
	Duration mem.Time
}

// MedianTxEpochs returns the median number of epochs per transaction
// (Figure 3).
func (a *Analysis) MedianTxEpochs() int {
	if len(a.TxEpochCounts) == 0 {
		return 0
	}
	s := make([]int, len(a.TxEpochCounts))
	copy(s, a.TxEpochCounts)
	sort.Ints(s)
	return s[len(s)/2]
}

// SizeDistribution returns the Figure 4 histogram as fractions of total
// epochs.
func (a *Analysis) SizeDistribution() [NumSizeBuckets]float64 {
	var out [NumSizeBuckets]float64
	if a.TotalEpochs == 0 {
		return out
	}
	for i, n := range a.SizeHist {
		out[i] = float64(n) / float64(a.TotalEpochs)
	}
	return out
}

// SingletonFraction returns the fraction of one-line epochs.
func (a *Analysis) SingletonFraction() float64 {
	if a.TotalEpochs == 0 {
		return 0
	}
	return float64(a.Singletons) / float64(a.TotalEpochs)
}

// SmallSingletonFraction returns the fraction of singletons updating fewer
// than 10 bytes.
func (a *Analysis) SmallSingletonFraction() float64 {
	if a.Singletons == 0 {
		return 0
	}
	return float64(a.SmallSingletons) / float64(a.Singletons)
}

// SelfDepFraction returns the Figure 5 self-dependency percentage (0..1).
func (a *Analysis) SelfDepFraction() float64 {
	if a.TotalEpochs == 0 {
		return 0
	}
	return float64(a.SelfDepEpochs) / float64(a.TotalEpochs)
}

// CrossDepFraction returns the Figure 5 cross-dependency percentage (0..1).
func (a *Analysis) CrossDepFraction() float64 {
	if a.TotalEpochs == 0 {
		return 0
	}
	return float64(a.CrossDepEpochs) / float64(a.TotalEpochs)
}

// NTIFraction returns the fraction of PM writes issued with non-temporal
// instructions, by byte volume (§5.2: ~96% in PMFS, ~67% in Mnemosyne).
func (a *Analysis) NTIFraction() float64 {
	total := a.NTBytes + a.CacheableBytes
	if total == 0 {
		return 0
	}
	return float64(a.NTBytes) / float64(total)
}

// Amplification returns additional PM bytes written per byte of user data
// (§5.2). A value of 3.0 corresponds to the paper's "300%".
func (a *Analysis) Amplification() float64 {
	if a.UserBytes == 0 {
		return 0
	}
	extra := float64(a.TotalPMBytes) - float64(a.UserBytes)
	if extra < 0 {
		return 0
	}
	return extra / float64(a.UserBytes)
}

// EpochsPerSecond returns the Table 1 rate on the simulated clock.
func (a *Analysis) EpochsPerSecond() float64 {
	if a.Duration == 0 {
		return 0
	}
	return float64(a.TotalEpochs) / (float64(a.Duration) / float64(mem.Second))
}

// PMFraction returns PM accesses as a fraction of all memory accesses
// (Figure 6).
func (a *Analysis) PMFraction() float64 {
	total := a.PMAccesses + a.DRAMAccesses
	if total == 0 {
		return 0
	}
	return float64(a.PMAccesses) / float64(total)
}

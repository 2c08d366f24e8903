package main

// Example runs the hashmap benchmark and the Figure 10 replay and holds
// both reports to the output below.
func Example() {
	main()
	// Output:
	// === epoch analysis (the paper's §5) ===
	// hashmap (nvml): 10411 epochs, 1.37e+06 epochs/s, 801 txs, median 13 epochs/tx
	//   epoch sizes: 1:92% 2:8% 3:0% 4:0% 5:0% 6-63:0% >=64:0%
	//   deps: self 78.7% cross 6.65% | NTI 0% | amp 1051% | PM share 3.33%
	// epochs per transaction (median): 13  (paper: 11)
	// singleton epochs:                92% (paper: ~75% for library apps)
	//
	// === HOPS evaluation (the paper's §6.4) ===
	// x86-64 (NVM)     1.000
	// x86-64 (PWQ)     0.836
	// HOPS (NVM)       0.736
	// HOPS (PWQ)       0.699
	// IDEAL (NON-CC)   0.670
	//
	// (runtimes normalized to the x86-64 NVM baseline; lower is better)
}

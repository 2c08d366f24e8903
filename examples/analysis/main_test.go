package main

// Example runs the suite sweep and holds its headline findings, the trace
// codec round trip and every per-application report to the output below.
func Example() {
	main()
	// Output:
	// running the WHISPER suite (scaled down; raise Ops for longer runs)...
	//
	// (a) PM share of memory accesses, suite average: 20.7% (paper: ~4%)
	// (b) apps with median 5..50 epochs/tx: 7 of 11 (paper: most)
	// (c) singleton epochs, suite average: 76% (paper: 75%)
	// (d) self-deps 73% vs cross-deps 2.17% (paper: high vs ~0)
	//
	// trace codec round trip: echo, 177472 events, 795494 bytes encoded
	//
	// per-application reports:
	// echo (native): 40979 epochs, 2.32e+06 epochs/s, 160 txs, median 252 epochs/tx
	//   epoch sizes: 1:89% 2:11% 3:0% 4:0% 5:0% 6-63:0% >=64:0%
	//   deps: self 67.1% cross 0.00% | NTI 0% | amp 515% | PM share 9.15%
	// ycsb (native): 38175 epochs, 3.06e+06 epochs/s, 1204 txs, median 31 epochs/tx
	//   epoch sizes: 1:65% 2:25% 3:10% 4:0% 5:0% 6-63:0% >=64:0%
	//   deps: self 73.7% cross 0.00% | NTI 0% | amp 275% | PM share 5.51%
	// tpcc (native): 61641 epochs, 6.33e+06 epochs/s, 604 txs, median 101 epochs/tx
	//   epoch sizes: 1:67% 2:31% 3:2% 4:0% 5:0% 6-63:0% >=64:0%
	//   deps: self 76.6% cross 0.00% | NTI 0% | amp 130% | PM share 70.06%
	// redis (nvml): 7733 epochs, 1.99e+06 epochs/s, 595 txs, median 13 epochs/tx
	//   epoch sizes: 1:92% 2:8% 3:0% 4:0% 5:0% 6-63:0% >=64:0%
	//   deps: self 84.5% cross 0.00% | NTI 0% | amp 773% | PM share 1.03%
	// ctree (nvml): 20004 epochs, 1.54e+06 epochs/s, 1001 txs, median 20 epochs/tx
	//   epoch sizes: 1:90% 2:10% 3:0% 4:0% 5:0% 6-63:0% >=64:0%
	//   deps: self 73.8% cross 6.53% | NTI 0% | amp 1700% | PM share 4.47%
	// hashmap (nvml): 13011 epochs, 1.36e+06 epochs/s, 1001 txs, median 13 epochs/tx
	//   epoch sizes: 1:92% 2:8% 3:0% 4:0% 5:0% 6-63:0% >=64:0%
	//   deps: self 78.4% cross 6.79% | NTI 0% | amp 1051% | PM share 3.32%
	// vacation (mnemosyne): 33746 epochs, 4.14e+05 epochs/s, 792 txs, median 4 epochs/tx
	//   epoch sizes: 1:75% 2:15% 3:2% 4:2% 5:0% 6-63:5% >=64:0%
	//   deps: self 76.4% cross 0.00% | NTI 77% | amp 6637% | PM share 0.18%
	// memcached (mnemosyne): 710 epochs, 9e+05 epochs/s, 96 txs, median 4 epochs/tx
	//   epoch sizes: 1:73% 2:7% 3:19% 4:0% 5:0% 6-63:0% >=64:0%
	//   deps: self 72.4% cross 8.45% | NTI 71% | amp 467% | PM share 15.81%
	// nfs (pmfs): 4615 epochs, 2.91e+05 epochs/s, 176 txs, median 13 epochs/tx
	//   epoch sizes: 1:59% 2:21% 3:0% 4:0% 5:0% 6-63:2% >=64:18%
	//   deps: self 66.3% cross 2.04% | NTI 98% | amp 2% | PM share 62.36%
	// exim (pmfs): 13206 epochs, 1.83e+04 epochs/s, 1054 txs, median 9 epochs/tx
	//   epoch sizes: 1:65% 2:30% 3:1% 4:0% 5:0% 6-63:0% >=64:5%
	//   deps: self 82.7% cross 0.00% | NTI 90% | amp 11% | PM share 51.16%
	// mysql (pmfs): 2159 epochs, 2.13e+04 epochs/s, 228 txs, median 9 epochs/tx
	//   epoch sizes: 1:62% 2:9% 3:1% 4:0% 5:0% 6-63:0% >=64:28%
	//   deps: self 54.4% cross 0.00% | NTI 99% | amp 1% | PM share 5.17%
}

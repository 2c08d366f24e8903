package main

// Example runs the key-value store through an abort and a power failure
// and holds what survives, and the device counters, to the output below.
func Example() {
	main()
	// Output:
	// inserted 100 keys; kv[7] = 49
	// aborted tx returned: application decided to abort
	// after crash+recovery: 100 keys persisted
	// kv[7] still = 49
	// device: 1832 stores, 1425 flushes, 1325 fences, 1 crash
}

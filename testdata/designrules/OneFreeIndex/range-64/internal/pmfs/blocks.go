package pmfs

func count(w uint64) (n int) {
	for i := range 64 {
		if w&(1<<i) != 0 {
			n++
		}
	}
	return n
}

package alloc

func highestFree(w uint64) int {
	for b := 63; b >= 0; b-- {
		if w&(1<<uint(b)) != 0 {
			return b
		}
	}
	return -1
}

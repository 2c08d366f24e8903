package alloc

func free(w uint64) []int {
	var out []int
	for bit := 0; bit < 64; bit++ {
		if w&(uint64(1)<<bit) != 0 {
			out = append(out, bit)
		}
	}
	return out
}

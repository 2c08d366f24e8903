package kvservice

func arrivals(gaps []float64, mean float64) (t float64) {
	for _, g := range gaps {
		t += g * mean
	}
	return t
}

package obs

// An explicit conversion rounds the product: no fused multiply-add.
func lerp(a, b, t float64) float64 { return a + float64((b-a)*t) }

func scaled(n int) float64 { return 2*1.5 + float64(n) }

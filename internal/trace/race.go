//go:build race

package trace

// poison marks every event of a released chunk KReleased, on which each
// consumer's kind switch panics: under the race detector a consumer that
// reads a chunk after handing it back fails at once, instead of reading
// whatever block its source wrote there since.
func poison(chunk []Event) {
	for i := range chunk {
		chunk[i].Kind = KReleased
	}
}

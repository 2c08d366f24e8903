package trace

type Trace struct{}

// Tail chooses between a keeping and a dropping tail.
func (t *Trace) Tail(keep bool) *Trace { return t }

func live(t *Trace) *Trace { return t.Tail(true) }

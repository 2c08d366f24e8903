package pmsan

import "github.com/whisper-pm/whisper/internal/trace"

func key(ev *trace.Event) int16 { return int16(ev.TID) }

package epoch

import "github.com/whisper-pm/whisper/internal/trace"

func key(ev trace.Event) int32 { return int32(ev.TID) }

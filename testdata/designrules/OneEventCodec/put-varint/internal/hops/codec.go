package hops

import (
	"encoding/binary"

	"github.com/whisper-pm/whisper/internal/trace"
)

func encode(buf []byte, e trace.Event) int { return binary.PutVarint(buf, int64(e.Time)) }

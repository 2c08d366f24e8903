package kvservice

import (
	"encoding/binary"

	"github.com/whisper-pm/whisper/internal/trace"
)

func encode(dst []byte, e trace.Event) []byte { return binary.AppendUvarint(dst, uint64(e.Size)) }

package cachesim

import "github.com/whisper-pm/whisper/internal/mem"

var owners map[mem.Line]int

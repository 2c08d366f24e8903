package persist

import "github.com/whisper-pm/whisper/internal/pmem"

func key(t pmem.ThreadID) int32 { return int32(t) }

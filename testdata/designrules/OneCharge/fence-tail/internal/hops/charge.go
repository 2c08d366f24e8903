package hops

import "github.com/whisper-pm/whisper/internal/mem"

func fenceTail(pending int) mem.Cycles {
	return mem.Cycles(pending) * (mem.PMCycles / 8)
}

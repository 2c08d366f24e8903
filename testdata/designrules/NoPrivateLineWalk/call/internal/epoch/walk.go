package epoch

import "github.com/whisper-pm/whisper/internal/mem"

// touched walks an event's lines through the unbounded oracle walk.
func touched(a mem.Addr, size int) int { return len(mem.Lines(a, size)) }

package epoch

import "github.com/whisper-pm/whisper/internal/mem"

// A method named Lines is not the package-level walk.
func lines(s *mem.LineSet) []mem.Line { return s.Lines() }

package hops

import "github.com/whisper-pm/whisper/internal/mem"

type line = mem.Line

var pending = make(map[line]bool)

package pmem

import "github.com/whisper-pm/whisper/internal/mem"

// smallSet is where the pending sets switch from scan to index; the
// differential test sizes its epochs around it.
const smallSet = mem.SmallSet

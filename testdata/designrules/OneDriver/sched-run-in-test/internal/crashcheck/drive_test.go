package crashcheck

import (
	"testing"

	run "github.com/whisper-pm/whisper/internal/sched"
)

func TestOwnDriver(t *testing.T) {
	run.Run([]int{1}, 1, func(tid, i int) bool { return true })
}

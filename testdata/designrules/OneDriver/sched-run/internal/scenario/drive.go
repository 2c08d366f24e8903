package scenario

import "github.com/whisper-pm/whisper/internal/sched"

func drive(steps []int) {
	sched.Run(steps, 1, func(tid, i int) bool { return true })
}

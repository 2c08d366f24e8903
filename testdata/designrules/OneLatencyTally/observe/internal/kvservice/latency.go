package kvservice

import "github.com/whisper-pm/whisper/internal/obs"

func timed(latency *obs.Histogram, ns uint64) { latency.Observe(ns) }

package main

import (
	"context"
	"time"
)

// traced runs the per-layer measurement. Every traced run reports every
// per-layer metric: the workload's own layers are probed for most of
// the run's time (and, for serve-mixed, from the loaded run itself),
// the other workloads' layers with short probes.
func traced(ctx context.Context, o *options, r *report) error {
	short := min(3, o.seconds)
	binSecs, offlineBudget, mixOps := short, time.Second, 200
	recoverDir := ""
	switch r.workload {
	case wServeBin:
		binSecs = 0.4 * o.seconds
	case wServeMixed:
		dir, err := serveMixed(ctx, o, r)
		if err != nil {
			return err
		}
		recoverDir, mixOps = dir, 500
	case wOffline:
		offlineBudget = time.Duration(0.3 * o.seconds * float64(time.Second))
	}
	if o.small {
		mixOps = 50
	}
	if err := binLayers(ctx, o, r, binSecs); err != nil {
		return err
	}
	if err := mixedLayers(ctx, o, r, recoverDir, mixOps); err != nil {
		return err
	}
	return offlineLayers(o, r, offlineBudget)
}

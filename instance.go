package partfeas

import (
	"context"
	"fmt"

	"partfeas/internal/core"
	"partfeas/internal/sim"
)

// Instance bundles the three inputs every feasibility question is asked
// about: the task set, the platform it runs on, and the per-machine
// scheduling policy. It is the unit of the context-first public API
// (TestCtx, MinAlphaCtx, SimulateCtx) and the unit the admission-control
// service caches testers by — one Instance value describes exactly one
// cached solver state.
type Instance struct {
	// Tasks is the sporadic task system under test.
	Tasks TaskSet
	// Platform is the uniform multiprocessor the tasks run on.
	Platform Platform
	// Scheduler is the per-machine policy (EDF or RMS). For simulation it
	// also selects the replay discipline: EDF replays under PolicyEDF, RMS
	// under PolicyRM.
	Scheduler Scheduler
}

// Validate checks the instance eagerly, naming the offending task or
// machine index. NewPlatform cannot reject bad speeds (it returns no
// error), so every public entry point calls this before any work: a NaN,
// zero, or infinite speed fails here with the machine identified instead
// of surfacing later from a distant internal check.
func (in Instance) Validate() error {
	if err := in.Tasks.Validate(); err != nil {
		return fmt.Errorf("partfeas: invalid task set: %w", err)
	}
	if err := in.Platform.Validate(); err != nil {
		return fmt.Errorf("partfeas: invalid platform: %w", err)
	}
	switch in.Scheduler {
	case EDF, RMS:
	default:
		return fmt.Errorf("partfeas: unknown scheduler %d", int(in.Scheduler))
	}
	return nil
}

// Policy returns the simulation discipline matching the instance's
// scheduler: PolicyEDF for EDF, PolicyRM for RMS.
func (in Instance) Policy() Policy {
	if in.Scheduler == RMS {
		return PolicyRM
	}
	return PolicyEDF
}

// TestCtx runs the paper's first-fit feasibility test for the instance at
// speed augmentation alpha, observing ctx: a cancelled or expired context
// yields a PipelineError wrapping the cause. One test is a single
// polynomial first-fit pass; repeated queries on the same instance should
// use a Tester (or the admission service, which pools them).
func TestCtx(ctx context.Context, in Instance, alpha float64) (Report, error) {
	if err := in.Validate(); err != nil {
		return Report{}, err
	}
	t, err := core.NewTester(in.Tasks, in.Platform, in.Scheduler)
	if err != nil {
		return Report{}, err
	}
	// The Tester is discarded, so the Report's aliasing of its scratch is
	// harmless: the caller becomes the sole owner.
	return t.TestCtx(ctx, alpha)
}

// MinAlphaCtx bisects for the smallest augmentation in [lo, hi] at which
// the instance's test accepts, observing ctx between probes; ok is false
// when even hi does not suffice. See MinAlpha for the bracket contract.
func MinAlphaCtx(ctx context.Context, in Instance, lo, hi, tol float64) (alpha float64, ok bool, err error) {
	if err := in.Validate(); err != nil {
		return 0, false, err
	}
	t, err := core.NewTester(in.Tasks, in.Platform, in.Scheduler)
	if err != nil {
		return 0, false, err
	}
	return t.MinAlphaCtx(ctx, lo, hi, tol)
}

// SimulateOptions configures SimulateCtx. Assignment is the only required
// field; the zero value of everything else selects the defaults the
// pre-redesign Simulate used (synchronous periodic releases, one
// hyperperiod, GOMAXPROCS workers, no trace).
type SimulateOptions struct {
	// Assignment maps each task index to its machine index, as produced by
	// Report.Partition.Assignment. Required.
	Assignment []int
	// Alpha scales machine speeds, matching a Report produced at that
	// augmentation. Must be positive; a Report's Alpha field can be passed
	// through directly.
	Alpha float64
	// Horizon bounds the replay; <= 0 selects one hyperperiod.
	Horizon int64
	// Arrivals generates release times; nil means synchronous periodic
	// (PeriodicArrivals), the worst case for implicit deadlines.
	Arrivals ArrivalModel
	// Workers bounds concurrent per-machine replays; <= 0 means
	// GOMAXPROCS. Results are bit-identical at any setting.
	Workers int
	// Trace additionally records one execution trace per machine (for
	// Gantt rendering and audits); SimulateCtx returns nil traces when
	// false.
	Trace bool
}

// SimulateCtx replays a partitioned schedule of the instance in the exact
// rational-arithmetic discrete-event simulator, under the policy matching
// the instance's scheduler (EDF → PolicyEDF, RMS → PolicyRM). It is the
// single simulation entry point: arrival model, worker count, horizon
// and tracing all live in opts, and cancellation flows through ctx with
// bounded latency
// (an interrupted replay returns a PipelineError naming the first machine
// that observed it). Traces are non-nil only when opts.Trace is set.
func SimulateCtx(ctx context.Context, in Instance, opts SimulateOptions) (SimulationResult, []*Trace, error) {
	if err := in.Validate(); err != nil {
		return SimulationResult{}, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	popts := sim.PartitionOptions{Arrivals: opts.Arrivals, Workers: opts.Workers, Ctx: ctx}
	if opts.Trace {
		return sim.SimulatePartitionTracedOpts(in.Tasks, in.Platform, opts.Assignment, in.Policy(), opts.Alpha, opts.Horizon, popts)
	}
	res, err := sim.SimulatePartitionOpts(in.Tasks, in.Platform, opts.Assignment, in.Policy(), opts.Alpha, opts.Horizon, popts)
	return res, nil, err
}

package online

import (
	"fmt"
	"math"
	"sort"

	"partfeas/internal/partition"
)

// Move is one task migration in a repartition plan.
type Move struct {
	Task int // task id
	From int // current machine (input index)
	To   int // machine under the paper's sorted first-fit
}

// Plan measures how far the engine's current placement has drifted from
// the paper's sorted first-fit over the same task multiset, and lists
// the migrations that would erase the drift. Under the ordered policy
// the engine tracks the sorted solve exactly, so the plan is always
// empty; under local policies each plan quantifies the guarantee
// forfeited by placing tasks in arrival order (the ordering gap of Lupu
// et al.).
type Plan struct {
	// Moves are the tasks whose current machine differs from the target,
	// in task-id order. Empty means zero drift.
	Moves []Move
	// TargetFeasible is false when the sorted solve itself fails at the
	// engine's augmentation — possible in arrival-order because first-fit
	// is not monotone in placement order; the engine's own state is
	// feasible regardless. Moves is empty in that case.
	TargetFeasible bool
	// Target is the sorted solve's result (caller-owned copy). When
	// TargetFeasible is false it carries the failure witness.
	Target partition.Result
	// MaxLoadDelta is the largest |current − target| per-machine load.
	MaxLoadDelta float64
}

// DriftFraction is the fraction of resident tasks that would move,
// against n resident tasks.
func (pl Plan) DriftFraction(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(len(pl.Moves)) / float64(n)
}

// PlanRepartition solves the paper's sorted first-fit fresh over the
// engine's resident multiset at its augmentation and diffs the result
// against the live placement. The engine is not modified.
func (e *Engine) PlanRepartition() (Plan, error) {
	if e.kind == admDBF {
		// The DBF engine's reference solve is dbf.FirstFit, not the
		// utilization partitioner; sorted-order DBF engines track it
		// exactly, so drift plans have nothing to measure.
		return Plan{}, fmt.Errorf("online: repartition is not supported for constrained-deadline engines")
	}
	res, err := partition.Partition(e.tasks, e.p, partition.Config{
		Admission: e.adm,
		Alpha:     e.alpha,
	})
	if err != nil {
		return Plan{}, fmt.Errorf("online: repartition solve: %w", err)
	}
	pl := Plan{Target: res, TargetFeasible: res.Feasible}
	for j := range e.machs {
		d := math.Abs(e.machs[j].load() - res.Loads[j])
		if d > pl.MaxLoadDelta {
			pl.MaxLoadDelta = d
		}
	}
	if !res.Feasible {
		return pl, nil
	}
	for id := range e.assign {
		if int(e.assign[id]) != res.Assignment[id] {
			pl.Moves = append(pl.Moves, Move{Task: id, From: int(e.assign[id]), To: res.Assignment[id]})
		}
	}
	return pl, nil
}

// ApplyRepartition migrates the engine toward the plan's target.
//
// maxMoves ≤ 0 or ≥ len(plan.Moves) applies the full plan: the engine is
// rebuilt to the target placement (folds re-run in the paper's order, so
// a sorted-order engine remains byte-identical to a fresh solve) and the
// final state is re-verified against every machine's admission bound
// before committing. A smaller maxMoves applies a bounded prefix
// greedily: moves are attempted in the target's placement order and a
// move is taken only when the destination machine admits the task
// against its current aggregates, so the engine stays feasible after
// every individual migration — the invariant a live service needs while
// draining drift across multiple bounded rounds.
//
// Returns the number of moves applied. The plan must be fresh (computed
// since the last mutation) — a stale plan fails verification rather than
// corrupting state. An over-capacity engine refuses: a plan moves placed
// tasks only.
func (e *Engine) ApplyRepartition(pl Plan, maxMoves int) (int, error) {
	if e.unplaced > 0 {
		return 0, fmt.Errorf("online: engine over capacity; repartition needs every task placed")
	}
	if !pl.TargetFeasible {
		return 0, fmt.Errorf("online: repartition target infeasible; nothing to apply")
	}
	if len(pl.Moves) == 0 {
		return 0, nil
	}
	if len(pl.Target.Assignment) != len(e.tasks) {
		return 0, fmt.Errorf("online: stale repartition plan: %d tasks in plan, %d resident", len(pl.Target.Assignment), len(e.tasks))
	}
	if maxMoves > 0 && maxMoves < len(pl.Moves) {
		return e.applyPartial(pl, maxMoves)
	}
	return len(pl.Moves), e.applyFull(pl)
}

// applyFull rebuilds every machine's fold to the target assignment,
// iterating tasks in the paper's utilization-descending order — the
// order the target solve folded in — so the rebuilt per-machine loads
// are byte-identical to the plan's Target.Loads and the admission
// re-verification repeats the solve's exact checks. (For a sorted-order
// engine that order is e.sorted, so placed lists stay position-ordered.)
// All machines are journaled first; verification failure (a stale plan)
// rolls everything back.
func (e *Engine) applyFull(pl Plan) error {
	order := e.sorted
	if !e.ordered {
		order = make([]int32, len(e.tasks))
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(a, b int) bool {
			return partition.TaskLessUtilDesc(e.tasks, int(order[a]), int(order[b]))
		})
	}
	e.begin(edit{op: opNone})
	for j := range e.machs {
		e.makeDirty(j, 0) // journals and empties the machine
	}
	for _, id := range order {
		j := pl.Target.Assignment[id]
		if j < 0 || j >= len(e.machs) {
			e.rollback()
			return fmt.Errorf("online: repartition plan assigns task %d to machine %d", id, j)
		}
		if !e.fitsAgg(j, id) {
			// The target placement re-folds differently than the plan
			// promised — the plan predates a mutation. Restore.
			e.rollback()
			return fmt.Errorf("online: stale repartition plan: task %d no longer fits machine %d", id, j)
		}
		e.journalAssign(id)
		e.assign[id] = int32(j)
		e.place(j, id)
	}
	// Every machine was rebuilt, so every checkpoint is invalidated;
	// commit recycles the journal and re-sweeps them from position 0.
	e.commit(0)
	return nil
}

// applyPartial performs up to maxMoves individually-feasible migrations
// from the plan, in engine placement order, skipping moves whose source
// no longer matches or whose destination does not currently admit the
// task. Each move is its own transaction, so the engine is feasible
// after every migration. Only reachable in arrival-order (sorted-order
// plans are empty), so splicing-and-appending folds is safe.
func (e *Engine) applyPartial(pl Plan, maxMoves int) (int, error) {
	moves := append([]Move(nil), pl.Moves...)
	sort.SliceStable(moves, func(a, b int) bool {
		return e.pos[moves[a].Task] < e.pos[moves[b].Task]
	})
	applied := 0
	for _, mv := range moves {
		if applied >= maxMoves {
			break
		}
		id := mv.Task
		if id < 0 || id >= len(e.tasks) || int(e.assign[id]) != mv.From {
			continue // stale entry; skip rather than fail the round
		}
		e.begin(edit{op: opNone})
		e.splice(mv.From, int32(id))
		if !e.fitsAgg(mv.To, int32(id)) {
			e.rollback()
			continue // destination full right now; a later round retries
		}
		e.journalAssign(int32(id))
		e.assign[id] = int32(mv.To)
		e.place(mv.To, int32(id))
		e.commit(0)
		applied++
	}
	return applied, nil
}

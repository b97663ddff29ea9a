package service

// Constrained-deadline sessions: the service face of the online engine's
// tiered DBF admission. A session created with deadline_model
// "constrained" carries a relative deadline D ≤ P per task and answers
// every admission through the engine's constrained pipeline — density
// pre-filter, approximate demand band, exact processor-demand test —
// with verdicts identical to a fresh exact constrained first-fit solve.
//
// Constrained and implicit sessions share one session path (see
// session.go): a task is validated against the session's deadline model
// once, before its op is logged or queued, and every admission is one
// call to the engine's constrained entry points, which forward D = P
// tasks on implicit engines. What stays model-specific is here: that
// validation, the repartition refusal (its reference solve is the
// utilization partitioner), the ad-hoc-alpha solver, and the record
// codec, which stores resolved deadlines only for constrained sessions.

import (
	"net/http"

	"partfeas"
	"partfeas/internal/dbf"
	"partfeas/internal/online"
	"partfeas/internal/oplog"
	"partfeas/internal/partition"
)

// sessionApproxK is the linearization depth of constrained sessions'
// approximate tier. Deeper envelopes sharpen the approximate band but
// grow per-machine state linearly; 8 keeps the exact tier rare on
// realistic mixes without measurable envelope cost.
const sessionApproxK = 8

var (
	errConstrainedRepartition = &httpError{
		code: http.StatusConflict,
		msg:  "repartition is not supported in constrained-deadline sessions",
	}
	errConstrainedDeadline = &httpError{
		code: http.StatusBadRequest,
		msg:  "task deadlines require a constrained-deadline session (create with deadline_model \"constrained\")",
	}
)

// checkTask is the one validation of an admission's record-form task,
// run before its op is logged or queued. Every task must have a valid
// name, WCET and period; implicit sessions then accept a deadline of 0
// or D = P (without the constrained period cap), constrained sessions
// require C ≤ D ≤ P under the engine's period cap.
func (s *session) checkTask(t oplog.Task) error {
	if err := (partfeas.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}).Validate(); err != nil {
		return badRequest("%v", err)
	}
	if !s.constrained {
		if t.Deadline != 0 && t.Deadline != t.Period {
			return errConstrainedDeadline
		}
		return nil
	}
	if err := online.ValidateConstrained(engTask(t)); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

// engTask resolves a record-form task (deadline as sent, 0 = implicit)
// to the engine's constrained task.
func engTask(t oplog.Task) dbf.Task {
	d := t.Deadline
	if d == 0 {
		d = t.Period
	}
	return dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: d, Period: t.Period}
}

// recordTasks is the resident set in record form, as create and
// snapshot records hold it: each task's resolved deadline on
// constrained sessions, 0 on implicit ones.
func (s *session) recordTasks() []oplog.Task {
	cs := s.eng.ConstrainedTasks()
	ts := make([]oplog.Task, len(cs))
	for i, t := range cs {
		ts[i] = oplog.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
		if s.constrained {
			ts[i].Deadline = t.Deadline
		}
	}
	return ts
}

// fromRecord inverts recordTasks: the engine's task set and, for a
// constrained session's record, its deadlines (nil for implicit ones).
func fromRecord(rs []oplog.Task, constrained bool) (partfeas.TaskSet, []int64) {
	ts := make(partfeas.TaskSet, len(rs))
	var dls []int64
	if constrained {
		dls = make([]int64, len(rs))
	}
	for i, t := range rs {
		ts[i] = partfeas.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
		if dls != nil {
			dls[i] = t.Deadline
		}
	}
	return ts, dls
}

// freshConstrainedReport runs a fresh exact constrained first-fit solve
// over the resident set at an ad-hoc alpha (the session engine's state
// is only valid at the session alpha). Caller holds s.mu.
func (s *session) freshConstrainedReport(alpha float64) (partfeas.Report, error) {
	cs := s.eng.ConstrainedTasks()
	feasible, assignment, err := dbf.FirstFit(cs, s.platform, alpha, 0)
	if err != nil {
		return partfeas.Report{}, &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	res := partition.Result{
		Feasible:   feasible,
		Assignment: assignment,
		FailedTask: -1,
		Loads:      make([]float64, len(s.platform)),
		Alpha:      alpha,
	}
	for i, j := range assignment {
		if j >= 0 {
			res.Loads[j] += cs[i].Utilization()
		} else if res.FailedTask < 0 {
			res.FailedTask = i
		}
	}
	return partfeas.Report{
		Accepted:  feasible,
		Scheduler: s.sched,
		Alpha:     alpha,
		Partition: res,
	}, nil
}

package service

// Constrained-deadline sessions: the service face of the online engine's
// tiered DBF admission. A session created with deadline_model
// "constrained" carries a relative deadline D ≤ P per task and answers
// every admission through the engine's constrained pipeline — density
// pre-filter, approximate demand band, exact processor-demand test —
// with verdicts identical to a fresh exact constrained first-fit solve.
//
// Force commits, removals and creates over an infeasible set follow the
// implicit sessions' rules: the engine holds the over-capacity set, and
// a sorted session's answers stay those of a fresh dbf.FirstFit solve.
// Only repartition is refused (its reference solve is the utilization
// partitioner).

import (
	"net/http"

	"partfeas"
	"partfeas/internal/dbf"
	"partfeas/internal/online"
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

// checkDeadlineArg vets a mutation's deadline argument against the
// session's model: implicit sessions only accept 0 or D = P.
func (s *session) checkDeadlineArg(dl, period int64) error {
	if !s.constrained && dl != 0 && dl != period {
		return errConstrainedDeadline
	}
	return nil
}

// deadlineOf resolves a wire deadline (0 = implicit) to the stored one.
func (s *session) deadlineOf(t partfeas.Task, dl int64) int64 {
	if dl == 0 {
		return t.Period
	}
	return dl
}

// constrainedTask builds the engine-facing task for one admission.
func (s *session) constrainedTask(t partfeas.Task, dl int64) dbf.Task {
	return dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: s.deadlineOf(t, dl), Period: t.Period}
}

// constrainedSet materializes the resident multiset with its deadlines.
func (s *session) constrainedSet() dbf.Set {
	cs := make(dbf.Set, len(s.in.Tasks))
	for i, t := range s.in.Tasks {
		cs[i] = dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: s.dls[i], Period: t.Period}
	}
	return cs
}

// freshConstrainedReport runs a fresh exact constrained first-fit solve
// over the resident set at an ad-hoc alpha (the session engine's state
// is only valid at the session alpha). Caller holds s.mu.
func (s *session) freshConstrainedReport(alpha float64) (partfeas.Report, error) {
	feasible, assignment, err := dbf.FirstFit(s.constrainedSet(), s.in.Platform, alpha, 0)
	if err != nil {
		return partfeas.Report{}, &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	res := partition.Result{
		Feasible:   feasible,
		Assignment: assignment,
		FailedTask: -1,
		Loads:      make([]float64, len(s.in.Platform)),
		Alpha:      alpha,
	}
	for i, j := range assignment {
		if j >= 0 {
			res.Loads[j] += s.in.Tasks[i].Utilization()
		} else if res.FailedTask < 0 {
			res.FailedTask = i
		}
	}
	return partfeas.Report{
		Accepted:  feasible,
		Scheduler: s.in.Scheduler,
		Alpha:     alpha,
		Partition: res,
	}, nil
}

// createConstrained opens a constrained-deadline session, over capacity
// if the set does not place at the session alpha. A typed analysis
// error (horizon or demand overflow) is surfaced rather than downgraded
// to a verdict.
func (st *sessionStore) createConstrained(in partfeas.Instance, dls []int64, alpha float64, placement online.Policy, id string) (*session, error) {
	defer st.dur.rlock()()
	if in.Scheduler != partfeas.EDF {
		return nil, badRequest("constrained-deadline sessions require the EDF scheduler")
	}
	eng, err := online.NewEngineForce(in.Tasks, in.Platform, online.Options{
		Policy: placement, Alpha: alpha, Deadlines: dls, ApproxK: sessionApproxK,
	})
	if err != nil {
		return nil, badRequest("constrained session: %v", err)
	}
	s := &session{
		in: partfeas.Instance{
			Tasks:     in.Tasks.Clone(),
			Platform:  in.Platform.Clone(),
			Scheduler: in.Scheduler,
		},
		alpha:       alpha,
		placement:   placement,
		constrained: true,
		dls:         append([]int64(nil), dls...),
		eng:         eng,
		epoch:       1,
		mx:          st.mx,
		dur:         st.dur,
	}
	return st.insert(s, id)
}

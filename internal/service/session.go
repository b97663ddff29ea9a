package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"partfeas"
	"partfeas/internal/dbf"
	"partfeas/internal/online"
	"partfeas/internal/oplog"
	"partfeas/internal/partition"
	"partfeas/internal/pipeline"
)

// session is one live admission-control session: a task set under
// negotiation against a fixed platform and scheduler.
//
// The session's online.Engine is the only copy of its resident set:
// task ids, WCETs and deadlines, the alpha and the placement policy are
// all read back from it. The engine keeps live per-machine load state,
// so an admit/remove/update costs a suffix replay (typically O(log m))
// instead of a full re-solve. Implicit- and constrained-deadline
// sessions share one path: every admission validates its task once,
// resolves its deadline (0 means D = P) and goes through the engine's
// constrained entry points, which forward D = P tasks on implicit
// engines. A force
// commit, a removal whose shrunken set does not place, or a create over
// an infeasible set leaves the engine holding an over-capacity set (see
// the online package doc): sorted sessions then answer exactly what a
// fresh sorted solve answers, other policies keep the unplaced tasks
// waiting in arrival order. Plain mutations of such a session commit
// only when they leave every task placed.
//
// Placement is the engine's placement policy (online.Policy):
// first_fit_sorted sessions stay byte-identical to the paper's fresh
// sorted solve at every step; every other policy (first_fit_arrival,
// best_fit, worst_fit, k_choices) places tasks as they arrive — the
// drift that accumulates against the sorted guarantee is measured and
// repaired via repartition().
//
// The per-session mutex serializes operations, so concurrent clients of
// one session see a linearizable task set; distinct sessions share
// nothing and proceed in parallel.
type session struct {
	mu sync.Mutex
	id string

	// Immutable configuration. Constrained-deadline sessions
	// (deadline_model "constrained") admit through the engine's tiered
	// DBF pipeline and refuse repartition.
	sched       partfeas.Scheduler
	platform    partfeas.Platform
	constrained bool

	eng    *online.Engine
	closed bool
	loads  loadCache   // JSON text of the engine's per-machine loads
	mx     *Metrics    // per-path admission metrics; nil in bare tests
	dur    *durability // WAL ack gate; nil without -data-dir (all calls nil-safe)

	// Cluster ownership (see migrate.go). epoch is the session's
	// ownership epoch: 1 at creation, incremented once per completed
	// migration, and the fencing token that keeps a stale owner from
	// acknowledging mutations the new owner's state lacks. fenced refuses
	// mutations while a handoff is between its fence and cutover points;
	// migrating marks an outbound transfer whose post-snapshot ops are
	// being captured into tail; noLog suppresses WAL appends while a
	// staged inbound copy replays its tail (the MigrateIn record carries
	// the final state instead).
	epoch     uint64
	fenced    bool
	migrating bool
	noLog     bool
	tail      []*oplog.Op

	// Admit coalescing: concurrent non-force single admits enqueue here
	// and whichever request acquires s.mu next drains the whole queue as
	// one merged engine batch (see addTask). pendMu is always acquired
	// after s.mu or alone, never the other way around.
	pendMu  sync.Mutex
	pending []*admitWaiter
}

// admitWaiter is one queued single-task admission awaiting a coalesced
// drain; t is validated and in record form (deadline as sent). done is
// closed by the draining request after body/err are set.
type admitWaiter struct {
	ctx  context.Context
	t    oplog.Task
	body *encoded
	err  error
	done chan struct{}
}

// sessionStore owns the id → session map.
type sessionStore struct {
	mu  sync.Mutex
	seq uint64
	max int
	m   map[string]*session
	mx  *Metrics    // propagated into every session it creates
	dur *durability // propagated likewise; nil without -data-dir

	// staging holds inbound migrations between prepare and commit, keyed
	// by session id; moved holds outbound tombstones (id → new owner)
	// that answer every later request with a 421 redirect. A moved entry
	// retains the session's final state until the destination
	// acknowledges the commit, so a source that crashed (or lost the ack)
	// can re-drive the handoff idempotently.
	staging map[string]*stagedSession
	moved   map[string]*movedSession
}

func newSessionStore(max int) *sessionStore {
	if max <= 0 {
		max = 1024
	}
	return &sessionStore{
		max:     max,
		m:       map[string]*session{},
		staging: map[string]*stagedSession{},
		moved:   map[string]*movedSession{},
	}
}

func (st *sessionStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// create opens a session, over capacity if the set does not place at
// alpha. It validates nothing itself — the handler passes a decoded,
// validated instance. dls, when non-nil, are the tasks' resolved
// relative deadlines and make the session constrained-deadline. id,
// when non-empty, is a caller-assigned session id (the cluster
// coordinator assigns ids so the consistent-hash ring can route the
// session before it exists); empty means the store assigns the next
// "s-<n>".
func (st *sessionStore) create(in partfeas.Instance, dls []int64, alpha float64, placement online.Policy, id string) (*session, error) {
	defer st.dur.rlock()()
	s, err := st.newSession(in, dls, online.Options{Policy: placement, Alpha: alpha})
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return st.insert(s, id)
}

// newSession builds a session and its engine — the one place create and
// restoreSession turn a session's configuration into online.Options. The
// engine copies the tasks, the session copies the platform, so request
// buffers never alias session state. Engine errors (malformed inputs, or
// a constrained set's typed analysis failure such as a horizon overflow)
// are returned, never downgraded to a verdict.
func (st *sessionStore) newSession(in partfeas.Instance, dls []int64, opts online.Options) (*session, error) {
	if dls != nil {
		if in.Scheduler != partfeas.EDF {
			return nil, errors.New("constrained-deadline sessions require the EDF scheduler")
		}
		opts.Deadlines, opts.ApproxK = dls, sessionApproxK
	} else {
		adm, err := in.Scheduler.Admission()
		if err != nil {
			return nil, err
		}
		opts.Admission = adm
	}
	eng, err := online.NewEngineForce(in.Tasks, in.Platform, opts)
	if err != nil {
		return nil, err
	}
	return &session{
		sched:       in.Scheduler,
		platform:    in.Platform.Clone(),
		constrained: dls != nil,
		eng:         eng,
		epoch:       1,
		mx:          st.mx,
		dur:         st.dur,
	}, nil
}

// insert gives a new session its id and logs its creation (the last
// fallible step, so a logged create always replays successfully).
func (st *sessionStore) insert(s *session, id string) (*session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.assignID(s, id); err != nil {
		return nil, err
	}
	if err := st.dur.logOp(createOp(s)); err != nil {
		if id == "" {
			st.seq--
		}
		return nil, err
	}
	st.m[s.id] = s
	return s, nil
}

// assignID gives s its id under st.mu: the next "s-<n>" when id is
// empty, or the caller's explicit id after uniqueness and shape checks.
// Explicit auto-shaped ids advance seq past their number so a later
// store-assigned id can never collide (WAL replay recreates sessions by
// their recorded explicit ids and relies on this).
func (st *sessionStore) assignID(s *session, id string) error {
	if len(st.m) >= st.max {
		return &httpError{code: http.StatusTooManyRequests, msg: fmt.Sprintf("session limit %d reached", st.max)}
	}
	if id == "" {
		st.seq++
		s.id = fmt.Sprintf("s-%d", st.seq)
		return nil
	}
	if err := checkSessionID(id); err != nil {
		return err
	}
	if _, ok := st.m[id]; ok {
		return &httpError{code: http.StatusConflict, msg: fmt.Sprintf("session %q already exists", id)}
	}
	if _, ok := st.moved[id]; ok {
		return &httpError{code: http.StatusConflict, msg: fmt.Sprintf("session id %q was migrated away and is retired here", id)}
	}
	if n, ok := autoSeq(id); ok && n > st.seq {
		st.seq = n
	}
	s.id = id
	return nil
}

// checkSessionID vets an explicit session id at the boundary.
func checkSessionID(id string) error {
	if len(id) > 128 {
		return badRequest("session id longer than 128 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return badRequest("session id %q contains %q (want [A-Za-z0-9._-])", id, string(c))
		}
	}
	return nil
}

// autoSeq parses a store-assigned "s-<n>" id; ok is false for any other
// shape (coordinator ids, client ids).
func autoSeq(id string) (uint64, bool) {
	if len(id) < 3 || id[0] != 's' || id[1] != '-' || id[2] == '0' {
		return 0, false
	}
	var n uint64
	for i := 2; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' || n > (^uint64(0)-uint64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// createOp encodes a session creation.
func createOp(s *session) *oplog.Op {
	op := &oplog.Op{
		Type:      oplog.TypeCreate,
		Session:   s.id,
		Alpha:     s.eng.Alpha(),
		Scheduler: s.sched.String(),
		Placement: s.eng.PlacementPolicy().Name(),
		Machines:  make([]oplog.Machine, len(s.platform)),
		Tasks:     s.recordTasks(),
	}
	if s.constrained {
		op.DeadlineModel = "constrained"
	}
	for i, m := range s.platform {
		op.Machines[i] = oplog.Machine{Name: m.Name, Speed: m.Speed}
	}
	return op
}

func (st *sessionStore) get(id string) (*session, error) {
	st.mu.Lock()
	s, ok := st.m[id]
	var mv *movedSession
	if !ok {
		mv = st.moved[id]
	}
	st.mu.Unlock()
	if !ok {
		if mv != nil {
			return nil, movedErr(id, mv.target)
		}
		return nil, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown session %q", id)}
	}
	return s, nil
}

func (st *sessionStore) remove(id string) error {
	defer st.dur.rlock()()
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[id]
	if !ok {
		if mv := st.moved[id]; mv != nil {
			return movedErr(id, mv.target)
		}
		return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown session %q", id)}
	}
	// The destroy record must be the session's last WAL op. Every
	// per-session mutation checks s.closed under s.mu before logging its
	// own op, so holding s.mu across the TypeDestroy append and the close
	// guarantees no mutation record can land after it — replay would
	// otherwise apply the destroy first and refuse to start on the
	// orphaned mutation op. (Lock order st.mu → s.mu matches the
	// documented gate → store → session hierarchy; nothing acquires them
	// in the opposite order.)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fenced {
		return errFenced
	}
	if s.migrating {
		// Destroy wins over an in-flight outbound transfer: abort the
		// capture here; the migration goroutine observes migrating ==
		// false at its fence step and reports the transfer failed.
		s.migrating = false
		s.tail = nil
	}
	if err := st.dur.logOp(&oplog.Op{Type: oplog.TypeDestroy, Session: id}); err != nil {
		return err
	}
	s.closed = true
	delete(st.m, id)
	return nil
}

var errSessionClosed = &httpError{code: http.StatusNotFound, msg: "session closed"}

// errFenced answers mutations that land between a migration's fence and
// its cutover: the op was not acknowledged; retry shortly and the 421
// redirect (or the unfenced session, if the transfer aborted) will
// answer. The migration flag marks the 503 as a transient handoff stall
// so forwarders can retry it internally instead of surfacing it — unlike
// the WAL-degraded 503, which must reach the client unchanged.
var errFenced = &httpError{
	code:       http.StatusServiceUnavailable,
	msg:        "session ownership is being transferred; retry",
	retryAfter: 1,
	migration:  true,
}

// movedErr is the tombstone answer after cutover: the session lives on
// another replica, named in the X-Session-Owner header.
func movedErr(id, target string) *httpError {
	return &httpError{
		code:  http.StatusMisdirectedRequest,
		msg:   fmt.Sprintf("session %q migrated to %s", id, target),
		owner: target,
	}
}

// guard is every mutation's closed/fenced check, taken under s.mu before
// the op is logged: a fenced session acknowledges nothing, which is what
// makes the ownership epoch a real fence and not advice.
func (s *session) guard() error {
	if s.closed {
		return errSessionClosed
	}
	if s.fenced {
		return errFenced
	}
	return nil
}

// logOp is the session-level acknowledgement point: the WAL append (ack)
// plus, while an outbound migration is capturing, the tail record that
// will be streamed to the new owner. Caller holds s.mu, which is what
// makes "tail = exactly the acknowledged ops after the snapshot" exact.
func (s *session) logOp(op *oplog.Op) error {
	if s.noLog {
		return nil // staged inbound replay: the MigrateIn record carries the state
	}
	if err := s.dur.logOp(op); err != nil {
		return err
	}
	if s.migrating {
		s.tail = append(s.tail, op)
	}
	return nil
}

// ctxGuard mirrors Tester.TestCtx's contract on the engine path: an
// expired or cancelled context yields the same *pipeline.Error shape as
// the stateless endpoints and ad-hoc-alpha session tests.
func ctxGuard(ctx context.Context) error {
	if cerr := ctx.Err(); cerr != nil {
		return pipeline.New(pipeline.StageAnalyze, "Test", cerr)
	}
	return nil
}

// engReport wraps an engine partition result as the library Report the
// wire layer encodes.
func (s *session) engReport(res partition.Result) partfeas.Report {
	return partfeas.Report{
		Accepted:  res.Feasible,
		Scheduler: s.sched,
		Alpha:     res.Alpha,
		Partition: res,
	}
}

// encodeTest encodes rep as a TestResponse body. Caller holds s.mu,
// which keeps the engine's views valid while they are encoded.
func (s *session) encodeTest(rep partfeas.Report) (*encoded, error) {
	view := testView(rep)
	e := getBuf()
	var err error
	e.b, err = appendTest(e.b, &view, &s.loads)
	return e.finish(err)
}

// encodeAdmission encodes a mutation's answer, stamped with the
// session's durability level. test, when non-nil, is the Test object
// already encoded (a coalesced group shares one). Caller holds s.mu.
func (s *session) encodeAdmission(r AdmissionResponse, test []byte) (*encoded, error) {
	r.Durability = s.dur.mode()
	e := getBuf()
	var err error
	e.b, err = appendAdmission(e.b, &r, test, &s.loads)
	return e.finish(err)
}

// currentReport answers "test the resident set at the session alpha"
// from the engine.
func (s *session) currentReport(ctx context.Context) (partfeas.Report, error) {
	if err := ctxGuard(ctx); err != nil {
		return partfeas.Report{}, err
	}
	return s.engReport(s.eng.Result()), nil
}

// state snapshots the session and re-tests it at its alpha.
func (s *session) state(ctx context.Context) (SessionResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionResponse{}, errSessionClosed
	}
	rep, err := s.currentReport(ctx)
	if err != nil {
		return SessionResponse{}, err
	}
	cs := s.eng.ConstrainedTasks() // D = P on implicit sessions
	resp := SessionResponse{
		ID:        s.id,
		Scheduler: s.sched.String(),
		Alpha:     s.eng.Alpha(),
		Placement: s.eng.PlacementPolicy().Name(),
		Tasks:     make([]TaskJSON, len(cs)),
		Machines:  make([]MachineJSON, len(s.platform)),
		Test:      TestResponseFrom(rep),
	}
	if s.constrained {
		resp.DeadlineModel = "constrained"
	}
	for i, t := range cs {
		resp.Tasks[i] = TaskJSON{Name: t.Name, WCET: t.WCET, Period: t.Period}
		if t.Deadline != t.Period {
			resp.Tasks[i].Deadline = t.Deadline
		}
	}
	for i, m := range s.platform {
		resp.Machines[i] = MachineJSON{Name: m.Name, Speed: m.Speed}
	}
	return resp, nil
}

// test re-tests the current set and returns the encoded TestResponse;
// alpha 0 keeps the session augmentation. Ad-hoc alphas run a one-shot
// fresh sorted test (the engine's state is only valid at the session
// alpha).
func (s *session) test(ctx context.Context, alpha float64) (*encoded, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errSessionClosed
	}
	var rep partfeas.Report
	var err error
	switch {
	case alpha == 0 || alpha == s.eng.Alpha():
		rep, err = s.currentReport(ctx)
	case s.constrained:
		// Constrained sets have no Tester; ad-hoc alphas run a fresh
		// exact constrained first-fit solve.
		if err = ctxGuard(ctx); err == nil {
			rep, err = s.freshConstrainedReport(alpha)
		}
	default:
		var t *partfeas.Tester
		if t, err = partfeas.NewTester(s.eng.Tasks(), s.platform, s.sched); err != nil {
			return nil, badRequest("%v", err)
		}
		rep, err = t.TestCtx(ctx, alpha)
	}
	if err != nil {
		return nil, err
	}
	return s.encodeTest(rep)
}

// addTask tentatively admits one more task: committed only on acceptance
// (or force, which may leave the session over capacity). t is in record
// form — the deadline as the client sent it (0 = implicit) — and is
// validated here, before it is logged or queued, so a malformed task
// fails only its own request.
//
// Non-force admits coalesce opportunistically: the request enqueues its
// task, then takes the session lock; whichever request gets the lock
// first drains every queued admit as one merged engine batch (best-
// effort semantics, identical verdicts to admitting them in queue
// order) and completes the others' responses. Under contention n
// queued interior admits cost one suffix replay instead of n; with no
// contention the queue holds a single entry and the plain path runs.
func (s *session) addTask(ctx context.Context, t oplog.Task, force bool) (*encoded, error) {
	defer s.dur.rlock()()
	if err := s.checkTask(t); err != nil {
		return nil, err
	}
	if force {
		// Force commits have their own commit rule; keep them out of
		// coalesced batches. They serialize on s.mu like everything
		// else, so verdict linearizability is unaffected.
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.addTaskLocked(ctx, t, true)
	}
	w := &admitWaiter{ctx: ctx, t: t, done: make(chan struct{})}
	s.pendMu.Lock()
	s.pending = append(s.pending, w)
	s.pendMu.Unlock()
	s.mu.Lock()
	s.pendMu.Lock()
	group := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	s.drainAdmits(group) // may be empty, may not include w, may be w alone
	s.mu.Unlock()
	<-w.done // completed by this drain or an earlier one
	return w.body, w.err
}

// drainAdmits serves a coalesced group of queued single admits; the
// caller holds s.mu. A singleton group runs the plain single-admit
// path; larger groups run one engine batch in queue order and share the
// group's final state as their test response, encoded once (each
// verdict still equals what a sequential admit at that queue position
// would have answered).
func (s *session) drainAdmits(group []*admitWaiter) {
	if len(group) == 0 {
		return
	}
	live := group[:0]
	for _, w := range group {
		switch {
		case s.guard() != nil:
			w.err = s.guard()
			close(w.done)
		case ctxGuard(w.ctx) != nil:
			w.err = ctxGuard(w.ctx)
			close(w.done)
		default:
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		// No useful merge: the plain path answers (and keeps single-admit
		// witness semantics and tail/interior metrics).
		w := live[0]
		w.body, w.err = s.addTaskLocked(w.ctx, w.t, false)
		close(w.done)
		return
	}
	// The coalesced group commits as one logged best-effort batch: replay
	// admits the same tasks in the same queue order through the engine's
	// batch path, which it keeps verdict-identical to sequential admission.
	ts := make([]oplog.Task, len(live))
	for i, w := range live {
		ts[i] = w.t
	}
	res, admitted, err := s.admitBatchLocked(ts, online.BestEffort, PathCoalesced)
	test := getBuf()
	defer test.release()
	if err == nil {
		view := testView(s.engReport(res))
		test.b, err = appendTest(test.b, &view, &s.loads)
	}
	for i, w := range live {
		if err != nil {
			w.err = err
		} else {
			w.body, w.err = s.encodeAdmission(AdmissionResponse{
				Admitted:   admitted[i],
				RolledBack: !admitted[i],
				NTasks:     s.eng.Len(),
			}, test.b)
		}
		close(w.done)
	}
}

// addTaskLocked is the single-admit body; the caller holds s.mu and has
// validated t. The op is acknowledged (logged) before any state changes
// and applied with cancellation stripped, so a durable admit is
// all-or-nothing.
func (s *session) addTaskLocked(ctx context.Context, t oplog.Task, force bool) (*encoded, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	if err := ctxGuard(ctx); err != nil {
		return nil, err
	}
	if err := s.logOp(&oplog.Op{Type: oplog.TypeAdmit, Session: s.id, Force: force, Tasks: []oplog.Task{t}}); err != nil {
		return nil, err
	}
	start := time.Now()
	admit := s.eng.AdmitConstrained
	if force {
		admit = s.eng.ForceAdmitConstrained
	}
	res, admitted, err := admit(engTask(t))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	s.observeAdmission(start)
	return s.encodeAdmission(AdmissionResponse{
		Admitted:   admitted || force,
		RolledBack: !admitted && !force,
		NTasks:     s.eng.Len(),
		Test:       testView(s.engReport(res)),
	}, nil)
}

// observeAdmission classifies the engine's most recent single admit as
// tail or interior and records its latency; constrained admissions also
// record which DBF tier decided them. Caller holds s.mu and must call
// this immediately after the engine operation.
func (s *session) observeAdmission(start time.Time) {
	if s.mx == nil {
		return
	}
	p := PathInterior
	if s.eng.LastOpStats().Tail {
		p = PathTail
	}
	d := time.Since(start)
	s.mx.AdmissionObserved(p, d)
	s.observeTier(d)
}

// observeTier records the deepest DBF tier the engine's last op used
// (no-op for implicit-deadline ops). Caller holds s.mu.
func (s *session) observeTier(d time.Duration) {
	if s.mx == nil {
		return
	}
	if tp, ok := TierPath(s.eng.LastOpStats().MaxTier); ok {
		s.mx.AdmissionObserved(tp, d)
	}
}

// addTaskBatch admits several tasks in one call as one merged engine
// batch: per-task verdicts are identical to admitting the tasks one at a
// time in input order (best-effort mode), or the batch commits
// atomically or not at all (all-or-nothing mode). On an over-capacity
// session a task is admitted only once the set places again. ts is in
// record form and is validated before anything is logged.
func (s *session) addTaskBatch(ctx context.Context, ts []oplog.Task, mode online.BatchMode) (*encoded, error) {
	defer s.dur.rlock()()
	for i, t := range ts {
		if err := s.checkTask(t); err != nil {
			return nil, badRequest("batch task %d: %v", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return nil, err
	}
	resp := BatchAdmissionResponse{Mode: mode.String(), Admitted: []bool{}, Durability: s.dur.mode()}
	if len(ts) == 0 {
		rep, err := s.currentReport(ctx)
		if err != nil {
			return nil, err
		}
		resp.NTasks, resp.Test = s.eng.Len(), testView(rep)
		return s.encodeBatch(&resp)
	}
	if err := ctxGuard(ctx); err != nil {
		return nil, err
	}
	res, admitted, err := s.admitBatchLocked(ts, mode, PathBatch)
	if err != nil {
		return nil, err
	}
	for _, ok := range admitted {
		if ok {
			resp.NAdmitted++
		}
	}
	resp.Admitted, resp.NTasks, resp.Test = admitted, s.eng.Len(), testView(s.engReport(res))
	return s.encodeBatch(&resp)
}

// encodeBatch encodes an admit-batch answer. Caller holds s.mu.
func (s *session) encodeBatch(r *BatchAdmissionResponse) (*encoded, error) {
	e := getBuf()
	var err error
	e.b, err = appendBatch(e.b, r, &s.loads)
	return e.finish(err)
}

// admitBatchLocked logs and applies one validated, non-empty batch — an
// explicit admit-batch request or a coalesced group of single admits,
// recorded on metrics path p. Caller holds s.mu.
func (s *session) admitBatchLocked(ts []oplog.Task, mode online.BatchMode, p AdmissionPath) (partition.Result, []bool, error) {
	if err := s.logOp(&oplog.Op{Type: oplog.TypeAdmitBatch, Session: s.id, BatchMode: mode.String(), Tasks: ts}); err != nil {
		return partition.Result{}, nil, err
	}
	start := time.Now()
	cs := make(dbf.Set, len(ts))
	for i, t := range ts {
		cs[i] = engTask(t)
	}
	res, admitted, err := s.eng.AdmitBatchConstrained(cs, mode)
	if err != nil {
		return partition.Result{}, nil, badRequest("%v", err)
	}
	if s.mx != nil {
		d := time.Since(start)
		n := 1 // an explicit batch is one observation
		if p == PathCoalesced {
			n = len(ts) // one per coalesced admit
		}
		for ; n > 0; n-- {
			s.mx.AdmissionObserved(p, d)
		}
		s.observeTier(d)
	}
	return res, admitted, nil
}

// removeTask always commits (releasing load cannot be refused) and
// reports the re-test of the shrunken set. Sorted first-fit is not
// monotone under removals, so the shrunken set can (rarely) fail to
// place; the session then holds it over capacity.
func (s *session) removeTask(ctx context.Context, idx int) (*encoded, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return nil, err
	}
	n := s.eng.Len()
	if idx < 0 || idx >= n {
		return nil, badRequest("task index %d out of range [0, %d)", idx, n)
	}
	if n == 1 {
		return nil, badRequest("cannot remove the last task; delete the session instead")
	}
	if err := ctxGuard(ctx); err != nil {
		return nil, err
	}
	if err := s.logOp(&oplog.Op{Type: oplog.TypeRemove, Session: s.id, Target: idx}); err != nil {
		return nil, err
	}
	res, ok, err := s.eng.ForceRemove(idx)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return s.encodeAdmission(AdmissionResponse{Admitted: ok, NTasks: s.eng.Len(), Test: testView(s.engReport(res))}, nil)
}

// updateWCET changes one task's WCET through the engine's incremental
// path, rolling back when the re-test rejects and force is unset.
func (s *session) updateWCET(ctx context.Context, idx int, wcet int64, force bool) (*encoded, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return nil, err
	}
	if n := s.eng.Len(); idx < 0 || idx >= n {
		return nil, badRequest("task index %d out of range [0, %d)", idx, n)
	}
	if err := ctxGuard(ctx); err != nil {
		return nil, err
	}
	if err := s.logOp(&oplog.Op{Type: oplog.TypeUpdateWCET, Session: s.id, Target: idx, WCET: wcet, Force: force}); err != nil {
		return nil, err
	}
	update := s.eng.UpdateWCET
	if force {
		update = s.eng.ForceUpdateWCET
	}
	res, ok, err := update(idx, wcet)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return s.encodeAdmission(AdmissionResponse{
		Admitted:   ok || force,
		RolledBack: !ok && !force,
		NTasks:     s.eng.Len(),
		Test:       testView(s.engReport(res)),
	}, nil)
}

// errOverCapacity is the repartition answer for sessions whose resident
// set does not place: there is no feasible state to drift from.
var errOverCapacity = &httpError{code: http.StatusConflict, msg: "session is over capacity (resident set does not place); restore feasibility first"}

// repartition measures drift between the session's live placement and
// the paper's sorted first-fit over the same task multiset, optionally
// applying up to maxMoves migrations. Sorted sessions report zero drift
// by construction; arrival sessions accumulate it and drain it here.
func (s *session) repartition(ctx context.Context, maxMoves int, apply bool) (RepartitionResponse, error) {
	defer s.dur.rlock()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.guard(); err != nil {
		return RepartitionResponse{}, err
	}
	if s.constrained {
		return RepartitionResponse{}, errConstrainedRepartition
	}
	if !s.eng.Feasible() {
		return RepartitionResponse{}, errOverCapacity
	}
	if err := ctxGuard(ctx); err != nil {
		return RepartitionResponse{}, err
	}
	if apply {
		// Logged before planning: re-planning over the identical engine
		// state is deterministic, so replay re-derives the same moves.
		if err := s.logOp(&oplog.Op{Type: oplog.TypeRepartition, Session: s.id, Target: maxMoves}); err != nil {
			return RepartitionResponse{}, err
		}
	}
	ctx = s.dur.applyCtx(ctx)
	pl, err := s.eng.PlanRepartition()
	if err != nil {
		return RepartitionResponse{}, &httpError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	resp := RepartitionResponse{
		Placement:      s.eng.PlacementPolicy().Name(),
		TargetFeasible: pl.TargetFeasible,
		MovesTotal:     len(pl.Moves),
		DriftFraction:  pl.DriftFraction(s.eng.Len()),
		MaxLoadDelta:   pl.MaxLoadDelta,
		Moves:          make([]MoveJSON, len(pl.Moves)),
	}
	for i, mv := range pl.Moves {
		resp.Moves[i] = MoveJSON{Task: mv.Task, From: mv.From, To: mv.To}
	}
	if apply && pl.TargetFeasible && len(pl.Moves) > 0 {
		applied, err := s.eng.ApplyRepartition(pl, maxMoves)
		if err != nil {
			// A stale plan is impossible under s.mu; surface anything else.
			return RepartitionResponse{}, &httpError{code: http.StatusInternalServerError, msg: err.Error()}
		}
		resp.Applied = applied
		resp.Partial = applied < len(pl.Moves)
	}
	rep, err := s.currentReport(ctx)
	if err != nil {
		return RepartitionResponse{}, err
	}
	resp.Test = TestResponseFrom(rep)
	return resp, nil
}

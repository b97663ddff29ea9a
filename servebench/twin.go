package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"partfeas"
	"partfeas/internal/online"
	"partfeas/internal/oplog"
	"partfeas/internal/partition"
	"partfeas/internal/service"
)

// twin replays a session's ops through the library the service calls —
// an online.Engine while the resident set is feasible, a fresh
// partfeas sorted first-fit solve while it is over capacity — and builds
// the response the service must have sent. It mirrors the session
// semantics of internal/service without sharing its code, so a served
// answer that differs from it is a defect on one side.
type twin struct {
	in  partfeas.Instance
	pol online.Policy
	eng *online.Engine
	dur string // the durability field of mutation responses

	// What the last op did, for the per-layer split.
	onEngine         bool
	engNS            int64
	buildNS, solveNS int64
	stats            online.OpStats
}

func newTwin(ts partfeas.TaskSet, p partfeas.Platform, pol online.Policy, dur string) *twin {
	t := &twin{in: partfeas.Instance{Tasks: ts.Clone(), Platform: p, Scheduler: partfeas.EDF}, pol: pol, dur: dur}
	t.arm()
	return t
}

// arm rebuilds the engine over the resident set, leaving it nil when
// the set is infeasible.
func (t *twin) arm() {
	t.eng = nil
	adm, err := t.in.Scheduler.Admission()
	if err != nil {
		return
	}
	if eng, err := online.NewEngine(t.in.Tasks, t.in.Platform, online.Options{Policy: t.pol, Admission: adm}); err == nil {
		t.eng = eng
	}
}

func (t *twin) engReport(res partition.Result) partfeas.Report {
	return partfeas.Report{Accepted: res.Feasible, Scheduler: t.in.Scheduler, Alpha: res.Alpha, Partition: res}
}

// solve runs a fresh sorted first-fit test of ts at alpha 1.
func (t *twin) solve(ts partfeas.TaskSet) (partfeas.Report, error) {
	t0 := time.Now()
	tester, err := partfeas.NewTester(ts, t.in.Platform, t.in.Scheduler)
	if err != nil {
		return partfeas.Report{}, err
	}
	t1 := time.Now()
	rep, err := tester.Test(1)
	t.buildNS, t.solveNS = int64(t1.Sub(t0)), int64(time.Since(t1))
	return rep, err
}

func (t *twin) begin() {
	t.onEngine = t.eng != nil
	t.engNS, t.buildNS, t.solveNS = 0, 0, 0
	t.stats = online.OpStats{}
}

func (t *twin) admit(task partfeas.Task, force bool) (service.AdmissionResponse, error) {
	t.begin()
	var resp service.AdmissionResponse
	if t.eng != nil {
		t0 := time.Now()
		res, admitted, err := t.eng.Admit(task)
		t.engNS, t.stats = int64(time.Since(t0)), t.eng.LastOpStats()
		if err != nil {
			return resp, err
		}
		resp = service.AdmissionResponse{Admitted: admitted || force, Test: service.TestResponseFrom(t.engReport(res))}
		switch {
		case admitted:
			t.in.Tasks = append(t.in.Tasks, task)
		case force:
			t.in.Tasks = append(t.in.Tasks.Clone(), task)
			t.eng = nil
		default:
			resp.RolledBack = true
		}
	} else {
		cand := append(t.in.Tasks.Clone(), task)
		rep, err := t.solve(cand)
		if err != nil {
			return resp, err
		}
		resp = service.AdmissionResponse{Admitted: rep.Accepted || force, Test: service.TestResponseFrom(rep)}
		if resp.Admitted {
			t.in.Tasks = cand
			if rep.Accepted {
				t.arm()
			}
		} else {
			resp.RolledBack = true
		}
	}
	resp.NTasks = len(t.in.Tasks)
	resp.Durability = t.dur
	return resp, nil
}

func (t *twin) remove(idx int) (service.AdmissionResponse, error) {
	t.begin()
	var resp service.AdmissionResponse
	if idx < 0 || idx >= len(t.in.Tasks) {
		return resp, fmt.Errorf("remove index %d out of range", idx)
	}
	cand := append(t.in.Tasks[:idx].Clone(), t.in.Tasks[idx+1:]...)
	if t.eng != nil {
		t0 := time.Now()
		res, ok, err := t.eng.Remove(idx)
		t.engNS, t.stats = int64(time.Since(t0)), t.eng.LastOpStats()
		if err != nil {
			return resp, err
		}
		resp = service.AdmissionResponse{Admitted: ok, Test: service.TestResponseFrom(t.engReport(res))}
		t.in.Tasks = cand
		if !ok {
			t.eng = nil
		}
	} else {
		rep, err := t.solve(cand)
		if err != nil {
			return resp, err
		}
		t.in.Tasks = cand
		if rep.Accepted {
			t.arm()
		}
		resp = service.AdmissionResponse{Admitted: rep.Accepted, Test: service.TestResponseFrom(rep)}
	}
	resp.NTasks = len(t.in.Tasks)
	resp.Durability = t.dur
	return resp, nil
}

func (t *twin) updateWCET(idx int, wcet int64) (service.AdmissionResponse, error) {
	t.begin()
	var resp service.AdmissionResponse
	if idx < 0 || idx >= len(t.in.Tasks) {
		return resp, fmt.Errorf("update index %d out of range", idx)
	}
	if t.eng != nil {
		t0 := time.Now()
		res, ok, err := t.eng.UpdateWCET(idx, wcet)
		t.engNS, t.stats = int64(time.Since(t0)), t.eng.LastOpStats()
		if err != nil {
			return resp, err
		}
		resp = service.AdmissionResponse{Admitted: ok, Test: service.TestResponseFrom(t.engReport(res))}
		if ok {
			t.in.Tasks[idx].WCET = wcet
		} else {
			resp.RolledBack = true
		}
	} else {
		cand := t.in.Tasks.Clone()
		cand[idx].WCET = wcet
		rep, err := t.solve(cand)
		if err != nil {
			return resp, err
		}
		resp = service.AdmissionResponse{Admitted: rep.Accepted, Test: service.TestResponseFrom(rep)}
		if rep.Accepted {
			t.in.Tasks = cand
			t.arm()
		} else {
			resp.RolledBack = true
		}
	}
	resp.NTasks = len(t.in.Tasks)
	resp.Durability = t.dur
	return resp, nil
}

// state is the session description GET /v1/sessions/{id} answers.
func (t *twin) state(id string) (service.SessionResponse, error) {
	var rep partfeas.Report
	if t.eng != nil {
		rep = t.engReport(t.eng.Result())
	} else {
		var err error
		if rep, err = t.solve(t.in.Tasks); err != nil {
			return service.SessionResponse{}, err
		}
	}
	resp := service.SessionResponse{
		ID: id, Scheduler: t.in.Scheduler.String(), Alpha: 1, Placement: t.pol.Name(),
		Tasks:    make([]service.TaskJSON, len(t.in.Tasks)),
		Machines: make([]service.MachineJSON, len(t.in.Platform)),
		Test:     service.TestResponseFrom(rep),
	}
	for i, tk := range t.in.Tasks {
		resp.Tasks[i] = service.TaskJSON{Name: tk.Name, WCET: tk.WCET, Period: tk.Period}
	}
	for i, m := range t.in.Platform {
		resp.Machines[i] = service.MachineJSON{Name: m.Name, Speed: m.Speed}
	}
	return resp, nil
}

// encoded is the wire form of a response: what the service's encoder
// writes for it, and how long encoding took.
type encoded struct {
	sum uint32
	n   int32
	ns  int64
}

func encode(v any) (encoded, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	err := json.NewEncoder(&buf).Encode(v)
	ns := int64(time.Since(t0))
	return encoded{sum: crc32.Checksum(buf.Bytes(), castagnoli), n: int32(buf.Len()), ns: ns}, err
}

// decodeNS times the service's strict decode of body into a fresh T.
func decodeNS[T any](body []byte) (int64, error) {
	var v T
	t0 := time.Now()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return int64(time.Since(t0)), err
}

func (r *opRec) matches(status int, e encoded) bool {
	return int(r.status) == status && r.sum == e.sum && r.respLen == e.n
}

// opTwin is the twin side of one traced op: the layer times the
// per-layer split subtracts from the handler time.
type opTwin struct {
	rec        *opRec
	onEngine   bool
	engNS      int64
	buildNS    int64
	solveNS    int64
	minNS      int64
	decodeNS   int64
	encodeNS   int64
	walNS      int64
	stats      online.OpStats
	admitted   bool
	wal        *oplog.Op
	infeasible bool
}

func (o *opTwin) totalNS() int64 {
	return o.engNS + o.buildNS + o.solveNS + o.minNS + o.decodeNS + o.encodeNS + o.walNS
}

// gateOut is the correctness gate's verdict plus the twin side of every
// traced op.
type gateOut struct {
	attempted, failed int
	overCap, sessOps  int // session ops served while over capacity, of all
	traced            []*opTwin
}

// gate checks every answer of the run, untimed with respect to the
// load: each session's create response, every op and the final state
// against a twin replay; every stateless answer against partfeas on the
// same instance. A mismatch or a non-2xx answer counts as failed.
//
// Sessions are independent, so an untraced run checks them in parallel,
// one goroutine per session. A traced run checks them one at a time:
// its twin replays are timed.
func (b *bench) gate() (*gateOut, error) {
	parts := make([]gateOut, len(b.gens))
	errs := make([]error, len(b.gens))
	var wg sync.WaitGroup
	for s, d := range b.gens {
		if b.trace {
			errs[s] = b.checkSession(&parts[s], s, d)
			continue
		}
		wg.Add(1)
		go func(s int, d *sessGen) {
			defer wg.Done()
			errs[s] = b.checkSession(&parts[s], s, d)
		}(s, d)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	g := &gateOut{}
	for _, p := range parts {
		g.attempted += p.attempted
		g.failed += p.failed
		g.overCap += p.overCap
		g.sessOps += p.sessOps
		g.traced = append(g.traced, p.traced...)
	}
	if b.st != nil {
		if err := b.checkStateless(g); err != nil {
			return nil, err
		}
	}
	if g.sessOps > 0 {
		b.log("gate: %d of %d session ops (%.3f%%) were served while their session was over capacity",
			g.overCap, g.sessOps, 100*float64(g.overCap)/float64(g.sessOps))
	}
	return g, nil
}

func (b *bench) durMode() string {
	if b.w.kind == kindCluster {
		return "wal"
	}
	return "none"
}

func (b *bench) checkSession(g *gateOut, s int, d *sessGen) error {
	pol, err := online.ParsePolicy(b.w.policy)
	if err != nil {
		return err
	}
	tw := newTwin(d.in.preloadTasks(), d.in.platform(), pol, b.durMode())
	st, err := tw.state(d.id)
	if err != nil {
		return err
	}
	st.Durability = b.durMode()
	e, err := encode(st)
	if err != nil {
		return err
	}
	g.attempted++
	if !b.created[s].matches(http.StatusCreated, e) {
		g.failed++
		b.log("gate: session %s create response differs from the twin", d.id)
	}
	for i := range d.log {
		r := &d.log[i]
		g.attempted++
		infeasible := tw.eng == nil
		g.sessOps++
		if infeasible {
			g.overCap++
		}
		var resp service.AdmissionResponse
		var err error
		switch r.kind {
		case opAdmit:
			resp, err = tw.admit(d.in.tasks[r.arg], r.force)
		case opRemove:
			resp, err = tw.remove(int(r.arg))
		case opUpdate:
			resp, err = tw.updateWCET(int(r.arg), r.wcet)
		}
		if err != nil {
			return fmt.Errorf("twin of session %s op %d: %w", d.id, i, err)
		}
		e, err := encode(resp)
		if err != nil {
			return err
		}
		if !r.matches(http.StatusOK, e) {
			g.failed++
			if g.failed <= 3 {
				b.log("gate: session %s op %d (%v) answered status %d, %d bytes; twin expects %d bytes, admitted=%v",
					d.id, i, r.kind, r.status, r.respLen, e.n, resp.Admitted)
			}
		}
		if r.rid < 0 {
			continue
		}
		ot := &opTwin{rec: r, onEngine: tw.onEngine, engNS: tw.engNS, buildNS: tw.buildNS, solveNS: tw.solveNS,
			encodeNS: e.ns, stats: tw.stats, admitted: resp.Admitted, infeasible: infeasible}
		_, _, body, err := d.request(r)
		if err != nil {
			return err
		}
		switch r.kind {
		case opAdmit:
			ot.decodeNS, err = decodeNS[service.AddTaskRequest](body)
		case opUpdate:
			ot.decodeNS, err = decodeNS[service.UpdateWCETRequest](body)
		}
		if err != nil {
			return err
		}
		ot.wal = walOp(d.id, r, d.in)
		g.traced = append(g.traced, ot)
	}
	// The final state, fetched after the load.
	g.attempted++
	cl := newWorker(0, b.tp.target)
	defer cl.tr.CloseIdleConnections()
	var rec opRec
	cl.send(&rec, http.MethodGet, "/v1/sessions/"+d.id, nil, time.Now())
	if st, err = tw.state(d.id); err != nil {
		return err
	}
	if e, err = encode(st); err != nil {
		return err
	}
	if !rec.matches(http.StatusOK, e) {
		g.failed++
		b.log("gate: session %s final state differs from the twin", d.id)
	}
	return nil
}

// walOp is the record the service appends for op r.
func walOp(id string, r *opRec, in *sessionInput) *oplog.Op {
	switch r.kind {
	case opAdmit:
		t := in.tasks[r.arg]
		return &oplog.Op{Type: oplog.TypeAdmit, Session: id, Force: r.force,
			Tasks: []oplog.Task{{Name: t.Name, WCET: t.WCET, Period: t.Period}}}
	case opRemove:
		return &oplog.Op{Type: oplog.TypeRemove, Session: id, Target: int(r.arg)}
	default:
		return &oplog.Op{Type: oplog.TypeUpdateWCET, Session: id, Target: int(r.arg), WCET: r.wcet}
	}
}

// statTwin is the library's answer to one distinct stateless request,
// and what each layer of serving it costs.
type statTwin struct {
	want                                     encoded
	decodeNS, buildNS, solveNS, minNS, encNS int64
}

func (b *bench) statelessTwin(k statOp) (*statTwin, error) {
	body := b.st.minBody[k.inst]
	if k.alpha >= 0 {
		body = b.st.testBody[k.inst][k.alpha]
	}
	// Both request types embed the instance; the strict, typed decode
	// is what the handler pays.
	var ir service.InstanceRequest
	if err := json.Unmarshal(body, &ir); err != nil {
		return nil, err
	}
	in, err := ir.Instance()
	if err != nil {
		return nil, err
	}
	st := &statTwin{}
	if k.alpha >= 0 {
		st.decodeNS, err = medianNS(3, func() (int64, error) { return decodeNS[service.TestRequest](body) })
	} else {
		st.decodeNS, err = medianNS(3, func() (int64, error) { return decodeNS[service.MinAlphaRequest](body) })
	}
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var resp any
	if k.alpha >= 0 {
		rep, err := partfeas.TestCtx(ctx, in, paperAlphas[k.alpha])
		if err != nil {
			return nil, err
		}
		resp = service.TestResponseFrom(rep)
	} else {
		alpha, ok, err := partfeas.MinAlphaCtx(ctx, in, 0.01, 8, 1e-6)
		if err != nil {
			return nil, err
		}
		resp = service.MinAlphaResponse{Alpha: alpha, OK: ok}
	}
	if st.want, err = encode(resp); err != nil {
		return nil, err
	}
	if !b.trace {
		return st, nil
	}
	if st.encNS, err = medianNS(3, func() (int64, error) { e, err := encode(resp); return e.ns, err }); err != nil {
		return nil, err
	}
	if st.buildNS, err = medianNS(3, func() (int64, error) {
		t0 := time.Now()
		_, err := partfeas.NewTester(in.Tasks, in.Platform, in.Scheduler)
		return int64(time.Since(t0)), err
	}); err != nil {
		return nil, err
	}
	tester, err := partfeas.NewTester(in.Tasks, in.Platform, in.Scheduler)
	if err != nil {
		return nil, err
	}
	if k.alpha >= 0 {
		st.solveNS, err = medianNS(5, func() (int64, error) {
			t0 := time.Now()
			_, err := tester.TestCtx(ctx, paperAlphas[k.alpha])
			return int64(time.Since(t0)), err
		})
	} else {
		st.minNS, err = medianNS(3, func() (int64, error) {
			t0 := time.Now()
			_, _, err := tester.MinAlphaCtx(ctx, 0.01, 8, 1e-6)
			return int64(time.Since(t0)), err
		})
	}
	return st, err
}

func medianNS(n int, f func() (int64, error)) (int64, error) {
	xs := make([]float64, n)
	for i := range xs {
		ns, err := f()
		if err != nil {
			return 0, err
		}
		xs[i] = float64(ns)
	}
	return int64(median(xs)), nil
}

func (b *bench) checkStateless(g *gateOut) error {
	twins := map[statOp]*statTwin{}
	check := func(r *opRec) error {
		k := statOp{r.inst, r.alpha}
		st, ok := twins[k]
		if !ok {
			var err error
			if st, err = b.statelessTwin(k); err != nil {
				return err
			}
			twins[k] = st
		}
		g.attempted++
		if !r.matches(http.StatusOK, st.want) {
			g.failed++
			if g.failed <= 5 {
				b.log("gate: %v of instance %d answered status %d, %d bytes; partfeas gives %d bytes", r.kind, r.inst, r.status, r.respLen, st.want.n)
			}
		}
		if r.rid >= 0 {
			ot := &opTwin{rec: r, decodeNS: st.decodeNS, encodeNS: st.encNS, solveNS: st.solveNS, minNS: st.minNS}
			if !r.hit {
				ot.buildNS = st.buildNS
			}
			g.traced = append(g.traced, ot)
		}
		return nil
	}
	for i := range b.setupLog {
		if err := check(&b.setupLog[i]); err != nil {
			return err
		}
	}
	for _, wk := range b.workers {
		for i := range wk.statLog {
			if err := check(&wk.statLog[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayWAL appends every traced op's record to a twin WAL opened with
// the replicas' options (group commit every 5 ms) and times Append, and
// Sync once per group-commit window's worth of ops at the offered rate.
// It returns the mean Sync time and the bytes written per op.
func (b *bench) replayWAL(ops []*opTwin) (syncUS, bytesPerOp float64, err error) {
	dir := filepath.Join(b.workdir, "twin-wal")
	w, err := oplog.Open(dir, oplog.Options{FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	sort.Slice(ops, func(i, j int) bool { return ops[i].rec.sent < ops[j].rec.sent })
	perSync := max(1, int(b.w.rate/2*0.005+0.5))
	var syncs []float64
	for i, o := range ops {
		t0 := time.Now()
		if _, err := w.Append(o.wal); err != nil {
			w.Close()
			return 0, 0, err
		}
		o.walNS = int64(time.Since(t0))
		if (i+1)%perSync == 0 {
			t0 := time.Now()
			if err := w.Sync(); err != nil {
				w.Close()
				return 0, 0, err
			}
			syncs = append(syncs, float64(time.Since(t0))/1e3)
		}
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		total += info.Size()
	}
	return mean(syncs), float64(total) / float64(max(len(ops), 1)), nil
}

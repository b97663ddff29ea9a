package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"partfeas/internal/service"
	"partfeas/internal/workload"
)

type opKind uint8

const (
	opAdmit opKind = iota
	opRemove
	opUpdate
	opTest
	opMinAlpha
)

var opNames = [...]string{"admit", "remove", "update", "test", "minalpha"}

func (k opKind) String() string { return opNames[k] }

// isAdmit marks the requests admit_* covers: requests that decide
// whether a task set is admitted — session admits, and /v1/test on the
// stateless workload.
func (k opKind) isAdmit() bool { return k == opAdmit || k == opTest }

// opRec is one request as sent and answered. Times are ns since the
// run's base instant.
type opRec struct {
	due, sent, done int64
	kind            opKind
	phase           uint8
	force           bool
	admitted        bool  // the verdict at the head of a session answer
	hit             bool  // X-Cache: hit (stateless)
	shard           int8  // replica that answered (cluster), else 0
	status          int16 // HTTP status; 0 when the request failed in transport
	inst            int16 // stateless instance
	alpha           int8  // stateless alpha index, -1 for minalpha
	arg             int32 // admit: tenant; remove/update: task index
	wcet            int64 // update: new WCET
	rid             int32 // span slot, -1 when untraced
	reqLen, respLen int32
	sum             uint32 // CRC-32C of the response body
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sessGen issues one session's ops and tracks its resident tenants
// from the served verdicts. Exactly one worker drives it, so its op
// order is a deterministic function of its input and the verdicts.
type sessGen struct {
	id       string
	in       *sessionInput
	forceMod int

	cursor     int   // next event
	resident   []int // tenant of each session task index
	pendForce  int   // tenant to retry with force, -1 none
	pendUpdate int   // event whose update is still due, -1 none

	log []opRec // every op sent, in order
}

func newSessGen(id string, in *sessionInput, forceMod, maxOps int) *sessGen {
	return &sessGen{
		id: id, in: in, forceMod: forceMod,
		resident:  append([]int(nil), in.preload...),
		pendForce: -1, pendUpdate: -1,
		log: make([]opRec, 0, maxOps),
	}
}

var errExhausted = errors.New("generated input exhausted; the run offered more ops than its inputs were sized for")

// next prepares the session's next op.
func (d *sessGen) next() (opRec, error) {
	for {
		if d.pendForce >= 0 {
			r := opRec{kind: opAdmit, arg: int32(d.pendForce), force: true}
			d.pendForce = -1
			return r, nil
		}
		if d.pendUpdate >= 0 {
			u := d.in.update(d.pendUpdate)
			d.pendUpdate = -1
			k := int(u.pick * float64(len(d.resident)))
			p := d.in.tasks[d.resident[k]].Period
			wcet := int64(math.Round(u.util * float64(p)))
			if wcet < 1 {
				wcet = 1
			}
			return opRec{kind: opUpdate, arg: int32(k), wcet: wcet}, nil
		}
		if d.cursor >= len(d.in.events) {
			return opRec{}, errExhausted
		}
		i := d.cursor
		d.cursor++
		if d.in.update(i).util > 0 {
			d.pendUpdate = i
		}
		ev := d.in.events[i]
		if !ev.depart {
			return opRec{kind: opAdmit, arg: ev.seq}, nil
		}
		if k := indexOf(d.resident, int(ev.seq)); k >= 0 {
			return opRec{kind: opRemove, arg: int32(k)}, nil
		}
		// The tenant was rejected on arrival: nothing to remove.
	}
}

// request renders op r as an HTTP method, path and body.
func (d *sessGen) request(r *opRec) (method, path string, body []byte, err error) {
	base := "/v1/sessions/" + d.id
	switch r.kind {
	case opAdmit:
		t := d.in.tasks[r.arg]
		body, err = json.Marshal(service.AddTaskRequest{
			Task:  service.TaskJSON{Name: t.Name, WCET: t.WCET, Period: t.Period},
			Force: r.force,
		})
		return http.MethodPost, base + "/tasks", body, err
	case opRemove:
		return http.MethodDelete, base + "/tasks/" + strconv.Itoa(int(r.arg)), nil, nil
	case opUpdate:
		body, err = json.Marshal(service.UpdateWCETRequest{Index: int(r.arg), WCET: r.wcet})
		return http.MethodPost, base + "/wcet", body, err
	}
	return "", "", nil, fmt.Errorf("op %v is not a session op", r.kind)
}

// observe folds a served verdict into the generator's resident tracking.
func (d *sessGen) observe(r *opRec) {
	if r.status != http.StatusOK {
		return
	}
	switch r.kind {
	case opAdmit:
		if r.admitted {
			d.resident = append(d.resident, int(r.arg))
		} else if !r.force && d.forceMod > 0 && int(r.arg)%d.forceMod == 0 {
			d.pendForce = int(r.arg)
		}
	case opRemove:
		// Removals always commit; a refused one leaves the session over
		// capacity, not the task resident.
		d.resident = append(d.resident[:r.arg], d.resident[r.arg+1:]...)
	}
}

// worker is one open-loop client: one connection to the target, the
// sessions it alone drives (round-robin), or its share of the
// stateless request sequence.
type worker struct {
	id     int
	target string
	client *http.Client
	tr     *http.Transport

	sess []*sessGen
	rr   int

	st      *statelessInput
	statPos int
	statLog []opRec

	buf bytes.Buffer
}

func newWorker(id int, target string) *worker {
	tr := &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{}).DialContext,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &worker{id: id, target: target, tr: tr, client: &http.Client{Transport: tr}}
}

// next prepares the worker's next op and the log it belongs to.
func (wk *worker) next() (rec opRec, d *sessGen, err error) {
	if wk.st != nil {
		if wk.statPos >= len(wk.st.ops[wk.id]) {
			return opRec{}, nil, errExhausted
		}
		op := wk.st.ops[wk.id][wk.statPos]
		wk.statPos++
		kind := opTest
		if op.alpha < 0 {
			kind = opMinAlpha
		}
		return opRec{kind: kind, inst: op.inst, alpha: op.alpha}, nil, nil
	}
	d = wk.sess[wk.rr]
	wk.rr = (wk.rr + 1) % len(wk.sess)
	rec, err = d.next()
	return rec, d, err
}

func (wk *worker) request(r *opRec, d *sessGen) (method, path string, body []byte, err error) {
	if d != nil {
		return d.request(r)
	}
	if r.kind == opMinAlpha {
		return http.MethodPost, "/v1/minalpha", wk.st.minBody[r.inst], nil
	}
	return http.MethodPost, "/v1/test", wk.st.testBody[r.inst][r.alpha], nil
}

// phase is one stretch of open-loop load at a fixed offered rate.
type phase struct {
	id     uint8
	rate   float64 // ops/s across all workers
	dur    time.Duration
	traced bool
}

// phaseOut summarizes what a phase did.
type phaseOut struct {
	sent, dropped int
}

// runPhase drives one phase on every worker and waits for all of them.
// Arrivals are Poisson per worker, drawn from the seed and phase seq;
// each request is timed from when it was due. A worker that is still
// behind schedule drainGrace after the phase end drops the rest of its
// schedule: those ops count as the phase's backlog.
func (b *bench) runPhase(ph phase) (phaseOut, error) {
	b.phaseSeq++
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(ph.dur)
	var wg sync.WaitGroup
	outs := make([]phaseOut, len(b.workers))
	errs := make([]error, len(b.workers))
	for i, wk := range b.workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			rng := workload.NewRNG(mix(b.seed, uint64(b.phaseSeq), uint64(100+i)))
			outs[i], errs[i] = b.drive(wk, ph, rng, start, end)
		}(i, wk)
	}
	wg.Wait()
	var out phaseOut
	for _, o := range outs {
		out.sent += o.sent
		out.dropped += o.dropped
	}
	return out, errors.Join(errs...)
}

// drive is one worker's side of a phase.
func (b *bench) drive(wk *worker, ph phase, rng *workload.RNG, start, end time.Time) (phaseOut, error) {
	var out phaseOut
	mean := float64(len(b.workers)) / ph.rate
	t := 0.0
	for {
		t += rng.Exp(mean)
		due := start.Add(time.Duration(t * 1e9))
		if !due.Before(end) {
			return out, nil
		}
		if time.Now().After(end.Add(drainGrace)) {
			out.dropped++
			continue
		}
		rec, d, err := wk.next()
		if err != nil {
			return out, err
		}
		rec.phase = ph.id
		rec.rid = -1
		if ph.traced {
			rec.rid = b.rid.Add(1) - 1
			if int(rec.rid) >= b.slots {
				return out, fmt.Errorf("span slots exhausted at %d", b.slots)
			}
		}
		method, path, body, err := wk.request(&rec, d)
		if err != nil {
			return out, err
		}
		if rec.rid >= 0 {
			path += "?rid=" + strconv.Itoa(int(rec.rid))
		}
		sleepUntil(due)
		wk.send(&rec, method, path, body, due)
		out.sent++
		if d != nil {
			d.observe(&rec)
			d.log = append(d.log, rec)
		} else {
			wk.statLog = append(wk.statLog, rec)
		}
	}
}

// sleepUntil blocks until t. The runtime's timers wake a parked
// goroutine with millisecond granularity, which would add up to a
// millisecond of generator lag to every op, so the wait is a nanosleep
// system call on the worker's thread instead, with the thread's timer
// slack cut from the default 50 µs to 1 µs.
func sleepUntil(t time.Time) {
	if time.Until(t) <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// send issues one request and records it.
func (wk *worker) send(rec *opRec, method, path string, body []byte, due time.Time) {
	rec.due = int64(due.Sub(benchBase))
	rec.reqLen = int32(len(body))
	req, err := http.NewRequestWithContext(context.Background(), method, wk.target+path, bytes.NewReader(body))
	if err != nil {
		rec.sent = int64(time.Since(benchBase))
		rec.done = rec.sent
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec.sent = int64(time.Since(benchBase))
	res, err := wk.client.Do(req)
	if err == nil {
		wk.buf.Reset()
		_, err = wk.buf.ReadFrom(res.Body)
		res.Body.Close()
	}
	rec.done = int64(time.Since(benchBase))
	if err != nil {
		return
	}
	rec.status = int16(res.StatusCode)
	b := wk.buf.Bytes()
	rec.respLen = int32(len(b))
	rec.sum = crc32.Checksum(b, castagnoli)
	rec.hit = res.Header.Get("X-Cache") == "hit"
	if s := res.Header.Get("X-Shard"); s != "" {
		rec.shard = int8(shardIndex(s))
	}
	// The head of an AdmissionResponse is its verdict; the O(n+m) test
	// payload after it is left to the correctness gate.
	rec.admitted = bytes.HasPrefix(b, []byte(`{"admitted":true`))
}

func shardIndex(url string) int {
	for i := 0; i < 2; i++ {
		if url == replicaURL(i) {
			return i
		}
	}
	return -1
}

// warmConnections opens each worker's connection before timing starts.
func (b *bench) warmConnections() error {
	for _, wk := range b.workers {
		res, err := wk.client.Get(wk.target + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}
	return nil
}

// benchBase is the instant every recorded time is measured from.
var benchBase = time.Now()

// spansDone waits until every tracer has recorded want spans.
func spansDone(tp *topology, want int64) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		var total int64
		for _, t := range tp.repTrace {
			total += t.count.Load()
		}
		if total < want || (tp.coTrace != nil && tp.coTrace.count.Load() < want) {
			ok = false
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spans: replicas recorded %d of %d", total, want)
		}
		time.Sleep(time.Millisecond)
	}
}

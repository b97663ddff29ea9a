package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partfeas/internal/oplog"
)

// TestSessionAdmitBatchEndpoint drives POST /v1/sessions/{id}/admit-batch
// end to end: a fitting best-effort batch admits everything in one call,
// a mixed batch admits exactly the sequentially-admissible subset, and
// an all-or-nothing batch with a hog leaves the session untouched.
func TestSessionAdmitBatchEndpoint(t *testing.T) {
	s := newTestServer(t)
	id := stressSession(t, s, "sorted")

	w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":50},{"wcet":2,"period":60},{"wcet":3,"period":70}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	var resp BatchAdmissionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "best_effort" || resp.NAdmitted != 3 || resp.NTasks != 7 {
		t.Fatalf("batch response: %s", w.Body)
	}
	for i, ok := range resp.Admitted {
		if !ok {
			t.Fatalf("task %d rejected: %s", i, w.Body)
		}
	}
	if !resp.Test.Accepted {
		t.Fatalf("post-batch state rejected: %s", w.Body)
	}

	// The session's verdict list must match admitting the same batch
	// sequentially into an identical twin session.
	mixed := `{"tasks":[{"wcet":1,"period":90},{"wcet":700,"period":100},{"wcet":2,"period":80}]}`
	twin := stressSession(t, s, "sorted")
	for _, tk := range []string{`{"wcet":1,"period":50}`, `{"wcet":2,"period":60}`, `{"wcet":3,"period":70}`} {
		if w := do(t, s, http.MethodPost, "/v1/sessions/"+twin+"/tasks", `{"task":`+tk+`}`); w.Code != http.StatusOK {
			t.Fatalf("twin seed: %d %s", w.Code, w.Body)
		}
	}
	w = do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch", mixed)
	if w.Code != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var seq []bool
	for _, tk := range []string{`{"wcet":1,"period":90}`, `{"wcet":700,"period":100}`, `{"wcet":2,"period":80}`} {
		w := do(t, s, http.MethodPost, "/v1/sessions/"+twin+"/tasks", `{"task":`+tk+`}`)
		if w.Code != http.StatusOK {
			t.Fatalf("twin admit: %d %s", w.Code, w.Body)
		}
		var ar AdmissionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
			t.Fatal(err)
		}
		seq = append(seq, ar.Admitted)
	}
	for i := range seq {
		if resp.Admitted[i] != seq[i] {
			t.Fatalf("verdicts diverged from sequential: batch %v, sequential %v", resp.Admitted, seq)
		}
	}
	// Both sessions hold the same multiset now; their states must agree.
	a := do(t, s, http.MethodGet, "/v1/sessions/"+id, "")
	b := do(t, s, http.MethodGet, "/v1/sessions/"+twin, "")
	var as, bs SessionResponse
	if err := json.Unmarshal(a.Body.Bytes(), &as); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Body.Bytes(), &bs); err != nil {
		t.Fatal(err)
	}
	if encode(t, as.Test) != encode(t, bs.Test) {
		t.Fatalf("batch and sequential sessions diverged:\n%s\n%s", encode(t, as.Test), encode(t, bs.Test))
	}

	// All-or-nothing with a hog: nothing admitted, session unchanged.
	before := as
	w = do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":1000},{"wcet":900,"period":100}],"mode":"all_or_nothing"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("aon batch: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NAdmitted != 0 || resp.NTasks != len(before.Tasks) {
		t.Fatalf("aon hog batch mutated the session: %s", w.Body)
	}
	if resp.Test.Accepted {
		t.Fatalf("aon witness must be a rejection: %s", w.Body)
	}
	after := do(t, s, http.MethodGet, "/v1/sessions/"+id, "")
	var afterState SessionResponse
	if err := json.Unmarshal(after.Body.Bytes(), &afterState); err != nil {
		t.Fatal(err)
	}
	if encode(t, afterState.Test) != encode(t, before.Test) {
		t.Fatal("session state changed after rejected all-or-nothing batch")
	}
}

// TestSessionAdmitBatchValidation covers the endpoint's guards.
func TestSessionAdmitBatchValidation(t *testing.T) {
	s := newTestServer(t)
	id := stressSession(t, s, "")
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":0,"period":5}]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid task: %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":5}],"mode":"sometimes"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad mode: %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/sessions/s-999/admit-batch",
		`{"tasks":[{"wcet":1,"period":5}]}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", w.Code)
	}
	w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch", `{"tasks":[]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("empty batch: %d %s", w.Code, w.Body)
	}
}

// TestAdmissionMetricsMove asserts the per-path admission counters and
// latency histograms actually record: tail and interior single admits,
// an explicit batch, and a forced coalesced group must each move their
// counter, and the /metrics exposition must carry all four paths.
func TestAdmissionMetricsMove(t *testing.T) {
	s := newTestServer(t)
	id := stressSession(t, s, "sorted")

	// Tail admit: tiny utilization sorts last.
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/tasks",
		`{"task":{"wcet":1,"period":10000}}`); w.Code != http.StatusOK {
		t.Fatalf("tail admit: %d %s", w.Code, w.Body)
	}
	// Interior admit: larger utilization than the residents sorts first.
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/tasks",
		`{"task":{"wcet":30,"period":100}}`); w.Code != http.StatusOK {
		t.Fatalf("interior admit: %d %s", w.Code, w.Body)
	}
	// Batch admit.
	if w := do(t, s, http.MethodPost, "/v1/sessions/"+id+"/admit-batch",
		`{"tasks":[{"wcet":1,"period":300},{"wcet":1,"period":400}]}`); w.Code != http.StatusOK {
		t.Fatalf("batch admit: %d %s", w.Code, w.Body)
	}

	// Forced coalescing: hold the session lock, queue several admits,
	// release — the first waiter to win the lock must drain the whole
	// group as one engine batch.
	sess, err := s.sessions.get(id)
	if err != nil {
		t.Fatal(err)
	}
	const group = 4
	ts := make([]oplog.Task, group)
	for i := range ts {
		ts[i] = oplog.Task{WCET: 1, Period: int64(500 + i)}
	}
	resps, errs := coalesce(t, sess, group, ts...)
	for i := range ts {
		if errs[i] != nil {
			t.Errorf("coalesced admit %d: %v", i, errs[i])
		} else if !resps[i].Admitted {
			t.Errorf("coalesced admit %d rejected", i)
		}
	}

	m := s.Metrics()
	for p, want := range map[AdmissionPath]uint64{
		PathTail:      1,
		PathInterior:  1,
		PathBatch:     1,
		PathCoalesced: group,
	} {
		if got := m.admit[p].count.Load(); got < want {
			t.Errorf("path %v count = %d, want ≥ %d", p, got, want)
		}
	}
	w := do(t, s, http.MethodGet, "/metrics", "")
	out := w.Body.String()
	for _, want := range []string{
		`partfeas_admissions_total{path="tail"} 1`,
		`partfeas_admissions_total{path="interior"} 1`,
		`partfeas_admissions_total{path="batch"} 1`,
		fmt.Sprintf(`partfeas_admissions_total{path="coalesced"} %d`, group),
		`partfeas_admission_duration_seconds{path="interior",quantile="0.99"}`,
		`partfeas_admission_duration_seconds_count{path="coalesced"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// coalesce holds sess's lock while it issues every admit in ts
// concurrently, waits until each has either queued or answered (a
// malformed admit answers without queueing), requires queued of them in
// the queue, then releases the lock so the first waiter drains the queue
// as one group. It returns each admit's response and error, in ts order.
func coalesce(t *testing.T, sess *session, queued int, ts ...oplog.Task) ([]AdmissionResponse, []error) {
	t.Helper()
	resps := make([]AdmissionResponse, len(ts))
	errs := make([]error, len(ts))
	var answered atomic.Int32
	var wg sync.WaitGroup
	sess.mu.Lock()
	for i, tk := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body *encoded
			if body, errs[i] = sess.addTask(context.Background(), tk, false); body != nil {
				if err := json.Unmarshal(body.b, &resps[i]); err != nil {
					t.Error(err)
				}
			}
			answered.Add(1)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sess.pendMu.Lock()
		n := len(sess.pending)
		sess.pendMu.Unlock()
		a := int(answered.Load())
		if n+a == len(ts) {
			if n != queued {
				t.Errorf("%d admits queued behind the lock, want %d", n, queued)
			}
			break
		}
		if time.Now().After(deadline) {
			sess.mu.Unlock()
			t.Fatalf("only %d queued + %d answered of %d admits", n, a, len(ts))
		}
		time.Sleep(time.Millisecond)
	}
	sess.mu.Unlock()
	wg.Wait()
	return resps, errs
}

// TestCoalescedAdmitIsolatesBadDeadline queues two valid constrained
// admits behind the session lock next to one whose deadline is below
// its WCET. The malformed admit answers 400 on its own, before it is
// logged or queued; the valid ones drain as one coalesced batch, are
// admitted, and the batch's WAL record holds exactly them.
func TestCoalescedAdmitIsolatesBadDeadline(t *testing.T) {
	dir := t.TempDir()
	s := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
	w := do(t, s, http.MethodPost, "/v1/sessions",
		`{"tasks":[{"wcet":1,"period":100,"deadline":50}],"speeds":[1,1],"deadline_model":"constrained"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var state SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	sess, err := s.sessions.get(state.ID)
	if err != nil {
		t.Fatal(err)
	}
	good1 := oplog.Task{Name: "good1", WCET: 1, Period: 40, Deadline: 20}
	bad := oplog.Task{Name: "bad", WCET: 3, Period: 10, Deadline: 2}
	good2 := oplog.Task{Name: "good2", WCET: 2, Period: 30}
	resps, errs := coalesce(t, sess, 2, good1, bad, good2)
	var he *httpError
	if !errors.As(errs[1], &he) || he.code != http.StatusBadRequest {
		t.Errorf("malformed admit: err %v, want a 400", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil || !resps[i].Admitted || resps[i].NTasks != 3 {
			t.Errorf("valid admit %d: %+v, %v; want admitted with 3 tasks", i, resps[i], errs[i])
		}
	}
	if n := s.Metrics().admit[PathCoalesced].count.Load(); n != 2 {
		t.Errorf("coalesced admissions = %d, want 2", n)
	}
	s.Crash()

	wal, err := oplog.Open(dir, oplog.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	var batches [][]oplog.Task
	if err := wal.Replay(1, func(op *oplog.Op) error {
		switch op.Type {
		case oplog.TypeAdmitBatch:
			batches = append(batches, op.Tasks)
		case oplog.TypeAdmit:
			t.Errorf("unexpected single-admit record %+v", op.Tasks)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Queue order is goroutine scheduling order; the record holds the
	// queue in order, so compare the batch as a set.
	if len(batches) == 1 {
		sort.Slice(batches[0], func(i, j int) bool { return batches[0][i].Name < batches[0][j].Name })
	}
	if want := [][]oplog.Task{{good1, good2}}; !reflect.DeepEqual(batches, want) {
		t.Errorf("batch records %+v, want %+v", batches, want)
	}
}
